"""The compiled library's loader (:mod:`repro.graph.native`): build on
first use, a trusted private cache, concurrent cold builds,
corrupt-library recovery, the sweep's dict fallback, and the provenance
it leaves in traces and metrics."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.obs import trace
from repro.obs.metrics import counter_delta, get_registry
from repro.graph import native
from repro.rabbit import rabbit_order
from repro.rabbit.seq import community_detection_seq

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@pytest.fixture
def fresh_loader(monkeypatch):
    """Forget the process's loaded library for the test's duration."""
    monkeypatch.setattr(native, "_STATE", {})


def _cc_version() -> str:
    found = native._compiler()
    assert found is not None
    return found[1]


@requires_cc
class TestBuild:
    def test_compiled_sweep_loads_when_cc_is_on_path(self):
        """CI cannot pass on the dict fallback alone: with a compiler
        the production engine must be the compiled sweep."""
        assert native.library() is not None, native.fallback_reason()

    def test_cold_build_is_traced_once(self, tmp_path, monkeypatch, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        with trace.capture() as cap:
            assert native.library() is not None
        (build,) = cap.find("rabbit.native.build")
        assert build.attrs["library"].startswith("kernels-")
        monkeypatch.setattr(native, "_STATE", {})
        with trace.capture() as cap:
            assert native.library() is not None
        assert cap.find("rabbit.native.build") == []
        (lib,) = (tmp_path / "repro" / "native").iterdir()
        assert lib.stat().st_mode & 0o077 == 0

    def test_untrusted_cache_dir_is_refused(self, tmp_path):
        cache = tmp_path / "repro" / "native"
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        assert native._load(tmp_path) == (None, "untrusted-cache")
        cache.chmod(0o700)
        (tmp_path / "repro").chmod(0o775)
        assert native._load(tmp_path) == (None, "untrusted-cache")

    def test_fresh_cache_is_private_under_a_permissive_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            lib, reason = native._load(tmp_path)
        finally:
            os.umask(old)
        assert reason is None and lib is not None
        for d in (tmp_path / "repro", tmp_path / "repro" / "native"):
            assert d.stat().st_mode & 0o777 == 0o700

    def test_library_writable_by_others_is_refused(self, tmp_path):
        path = native._library_path(tmp_path, _cc_version())
        path.parent.mkdir(parents=True, mode=0o700)
        path.write_bytes(b"\x7fELF planted")
        path.chmod(0o666)
        assert native._load(tmp_path) == (None, "untrusted-cache")
        assert path.read_bytes() == b"\x7fELF planted"

    def test_cache_owned_by_someone_else_is_refused(self, tmp_path, monkeypatch):
        (tmp_path / "repro" / "native").mkdir(parents=True, mode=0o700)
        monkeypatch.setattr(native.os, "geteuid", lambda: os.getuid() + 1)
        assert native._load(tmp_path) == (None, "untrusted-cache")

    def test_corrupt_library_is_rebuilt(self, tmp_path):
        path = native._library_path(tmp_path, _cc_version())
        path.parent.mkdir(parents=True, mode=0o700)
        path.write_bytes(b"torn write")
        path.chmod(0o600)
        lib, reason = native._load(tmp_path)
        assert reason is None and lib is not None
        assert path.read_bytes()[:4] == b"\x7fELF"

    def test_failed_build_is_a_fallback_not_a_crash(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag"))
        assert native._load(tmp_path) == (None, "build-failed")
        assert list((tmp_path / "repro" / "native").iterdir()) == []

    def test_two_cold_builds_at_once_both_load(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": str(REPO_SRC)}
        code = (
            "import sys; from repro.graph import native; "
            "sys.exit(0 if native.library() is not None else 1)"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env)
            for _ in range(2)
        ]
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
        # one installed library, no temporaries left behind
        names = [p.name for p in (tmp_path / "repro" / "native").iterdir()]
        assert len(names) == 1 and names[0].endswith(".so")


def _without_compiler(monkeypatch) -> None:
    """Forget the loaded library and hide the compiler from the loader."""
    monkeypatch.setattr(native, "_STATE", {})
    monkeypatch.setattr(native.shutil, "which", lambda name: None)


class TestFallbackAndProvenance:
    def test_no_compiler_falls_back_to_dict_bit_identical(
        self, monkeypatch, fresh_loader
    ):
        g = rmat_graph(7, edge_factor=6, rng=4)
        # With a compiler: the compiled setup, sweep and DFS.
        compiled = rabbit_order(g)
        _without_compiler(monkeypatch)
        ref, ref_stats = community_detection_seq(g, engine="dict")
        before = get_registry().counter_values()
        with trace.capture() as cap:
            with pytest.warns(RuntimeWarning, match="no-compiler"):
                dend, stats = community_detection_seq(g, engine="fast")
        delta = counter_delta(before, get_registry().counter_values())
        assert delta["rabbit.native.fallback.no-compiler"] == 1
        assert delta["rabbit.engine.dict"] == 1
        assert "rabbit.engine.native" not in delta
        (agg,) = cap.find("rabbit.seq.aggregate")
        assert agg.attrs["engine"] == "dict"
        assert np.array_equal(dend.child, ref.child)
        assert np.array_equal(dend.sibling, ref.sibling)
        assert np.array_equal(dend.toplevel, ref.toplevel)
        assert stats.edges_scanned == ref_stats.edges_scanned
        # The fallback's permutation, Python DFS included, is the
        # compiled path's.
        with pytest.warns(RuntimeWarning, match="no-compiler"):
            fallback = rabbit_order(g)
        assert np.array_equal(fallback.permutation, compiled.permutation)

    @requires_cc
    def test_ordering_span_names_the_dfs(self, monkeypatch, fresh_loader):
        g = rmat_graph(6, edge_factor=4, rng=2)
        for parallel in (False, True):
            with trace.capture() as cap:
                rabbit_order(g, parallel=parallel)
            (span,) = cap.find("rabbit.ordering")
            assert span.attrs == {"parallel": parallel, "engine": "native"}
        _without_compiler(monkeypatch)
        for parallel in (False, True):
            with trace.capture() as cap, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rabbit_order(g, parallel=parallel)
            (span,) = cap.find("rabbit.ordering")
            assert span.attrs == {"parallel": parallel, "engine": "python"}

    @requires_cc
    def test_registry_counts_runs_per_engine(self):
        g = rmat_graph(6, edge_factor=4, rng=2)
        before = get_registry().counter_values()
        community_detection_seq(g, engine="fast")
        community_detection_seq(g, engine="fast")
        community_detection_seq(g, engine="dict")
        delta = counter_delta(before, get_registry().counter_values())
        assert delta["rabbit.engine.native"] == 2
        assert delta["rabbit.engine.dict"] == 1
