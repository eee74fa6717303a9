"""Baseline ratchet, git-scoped checking, and the suppression-debt
report — the workflow layer around the analyzers."""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.check import run_check
from repro.check.baseline import diff_baseline, fingerprint, write_baseline
from repro.check.changed import GitError, changed_files
from repro.check.debt import debt_report

BAD = """\
import numpy as np


def fetch(arr):
    idx = np.zeros(4)
    return arr[idx]
"""

WORSE = BAD + """\


def fetch2(arr):
    idx2 = np.zeros(9)
    return arr[idx2]
"""


def make_tree(root, body=BAD):
    pkg = root / "repro" / "graph"
    pkg.mkdir(parents=True, exist_ok=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "util.py").write_text(body)
    return root / "repro"


class TestBaseline:
    def test_write_then_diff_is_clean(self, tmp_path):
        tree = make_tree(tmp_path)
        report = run_check([tree], rules=["dtype-flow"])
        assert len(report.findings) == 1
        target = tmp_path / "baseline.json"
        assert write_baseline(report, target) == 1
        diff = diff_baseline(report, target)
        assert diff.ok
        assert diff.baselined == 1
        assert diff.new == [] and diff.resolved == []

    def test_new_finding_fails_the_diff(self, tmp_path):
        tree = make_tree(tmp_path)
        target = tmp_path / "baseline.json"
        write_baseline(run_check([tree], rules=["dtype-flow"]), target)
        make_tree(tmp_path, WORSE)
        diff = diff_baseline(run_check([tree], rules=["dtype-flow"]), target)
        assert not diff.ok
        assert len(diff.new) == 1
        assert diff.baselined == 1

    def test_resolved_finding_is_reported_not_failed(self, tmp_path):
        tree = make_tree(tmp_path, WORSE)
        target = tmp_path / "baseline.json"
        write_baseline(run_check([tree], rules=["dtype-flow"]), target)
        make_tree(tmp_path, BAD)  # one of the two findings fixed
        diff = diff_baseline(run_check([tree], rules=["dtype-flow"]), target)
        assert diff.ok
        assert len(diff.resolved) == 1

    def test_fingerprint_survives_line_drift(self, tmp_path):
        tree = make_tree(tmp_path)
        before = run_check([tree], rules=["dtype-flow"]).findings[0]
        make_tree(tmp_path, "# a comment pushing lines down\n" + BAD)
        after = run_check([tree], rules=["dtype-flow"]).findings[0]
        assert before.line != after.line
        assert fingerprint(before) == fingerprint(after)

    def test_second_instance_of_baselined_problem_is_new(self, tmp_path):
        # Same rule+message at two lines collapses to one fingerprint
        # with count=1; a duplicated instance must overflow to "new".
        tree = make_tree(tmp_path)
        target = tmp_path / "baseline.json"
        write_baseline(run_check([tree], rules=["dtype-flow"]), target)
        dup = BAD + "\n\ndef again(arr):\n    idx = np.zeros(4)\n    return arr[idx]\n"
        make_tree(tmp_path, dup)
        report = run_check([tree], rules=["dtype-flow"])
        messages = {f.message for f in report.findings}
        if len(messages) == 1:  # identical messages -> one fingerprint
            diff = diff_baseline(report, target)
            assert len(diff.new) == 1

    def test_missing_baseline_treats_everything_as_new(self, tmp_path):
        tree = make_tree(tmp_path)
        report = run_check([tree], rules=["dtype-flow"])
        diff = diff_baseline(report, tmp_path / "nope.json")
        assert not diff.ok and len(diff.new) == 1

    def test_wrong_schema_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema": "other/1", "entries": []}))
        tree = make_tree(tmp_path)
        report = run_check([tree], rules=["dtype-flow"])
        with pytest.raises(ValueError, match="not a check baseline"):
            diff_baseline(report, target)

    def test_diff_output_formats(self, tmp_path):
        tree = make_tree(tmp_path)
        report = run_check([tree], rules=["dtype-flow"])
        target = tmp_path / "baseline.json"
        write_baseline(report, target)
        diff = diff_baseline(report, target)
        assert "clean vs baseline" in diff.format_text(report)
        doc = json.loads(diff.to_json(report))
        assert doc["ok"] and doc["baselined"] == 1


class TestChangedFiles:
    def _git(self, *args, cwd):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
            cwd=cwd, check=True, capture_output=True, timeout=30,
        )

    def test_diff_plus_untracked(self, tmp_path):
        self._git("init", "-q", cwd=tmp_path)
        tracked = tmp_path / "a.py"
        tracked.write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        self._git("add", ".", cwd=tmp_path)
        self._git("commit", "-qm", "seed", cwd=tmp_path)
        tracked.write_text("x = 2\n")
        fresh = tmp_path / "b.py"
        fresh.write_text("y = 1\n")
        got = {p.name for p in changed_files("HEAD", cwd=tmp_path)}
        assert got == {"a.py", "b.py"}

    def test_deleted_files_are_skipped(self, tmp_path):
        self._git("init", "-q", cwd=tmp_path)
        doomed = tmp_path / "gone.py"
        doomed.write_text("z = 1\n")
        self._git("add", ".", cwd=tmp_path)
        self._git("commit", "-qm", "seed", cwd=tmp_path)
        doomed.unlink()
        assert changed_files("HEAD", cwd=tmp_path) == []

    def test_bad_ref_raises_git_error(self, tmp_path):
        self._git("init", "-q", cwd=tmp_path)
        (tmp_path / "a.py").write_text("x = 1\n")
        self._git("add", ".", cwd=tmp_path)
        self._git("commit", "-qm", "seed", cwd=tmp_path)
        with pytest.raises(GitError):
            changed_files("no-such-ref", cwd=tmp_path)


class TestRestrictedRun:
    def test_restrict_reports_only_named_files(self, tmp_path):
        tree = make_tree(tmp_path)
        other = tree / "graph" / "other.py"
        other.write_text(BAD)
        full = run_check([tree], rules=["dtype-flow"])
        assert len(full.findings) == 2
        scoped = run_check([tree], rules=["dtype-flow"], restrict=[other])
        assert len(scoped.findings) == 1
        assert all("other.py" in f.path for f in scoped.findings)
        assert scoped.files_checked == 1

    def test_project_rules_see_beyond_the_restriction(self, tmp_path):
        # The changed file is the *caller*; the finding lands at the
        # unchanged callee's sink and must be reported only when the
        # sink file itself is in the restriction — the caller-only
        # restriction keeps the run quiet instead of mis-attributing.
        caller = textwrap.dedent("""\
            import numpy as np

            from repro.graph.callee import pick


            def drive(arr):
                j = np.arange(3, dtype=np.int32)
                return pick(arr, j)
        """)
        callee = textwrap.dedent("""\
            def pick(arr, pos):
                return arr[pos]
        """)
        pkg = tmp_path / "repro" / "graph"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "caller.py").write_text(caller)
        (pkg / "callee.py").write_text(callee)
        tree = tmp_path / "repro"
        full = run_check([tree], rules=["dtype-flow"])
        # the sink in callee.py, plus the np.int32 construction site in
        # caller.py
        assert sorted(Path(f.path).name for f in full.findings) == [
            "callee.py",
            "caller.py",
        ]
        sink_scoped = run_check(
            [tree], rules=["dtype-flow"], restrict=[pkg / "callee.py"]
        )
        assert [Path(f.path).name for f in sink_scoped.findings] == ["callee.py"]


class TestDebtReport:
    def test_inventory_and_flags(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(
            "x = 1  # repro: ignore[unseeded-rng] fixture noise only\n"
        )
        (pkg / "b.py").write_text(
            "# repro: ignore-file[layering]\ny = 2\n"
        )
        report = debt_report([pkg])
        assert len(report.suppressions) == 2
        assert len(report.unjustified) == 1
        assert len(report.file_wide) == 1
        text = report.format_text()
        assert "NO JUSTIFICATION" in text and "[file-wide]" in text
        doc = json.loads(report.to_json())
        assert doc["unjustified"] == 1 and doc["file_wide"] == 1

    def test_pragma_text_in_a_docstring_is_not_a_suppression(self, tmp_path):
        # Docs that show the pragma syntax are not pragmas: only comments
        # (as the tokenizer sees them) count, exactly as for suppression.
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "a.py").write_text(
            '"""Suppress with ``# repro: ignore[layering] why``, or\n'
            '\n'
            '    # repro: ignore-file[unseeded-rng]  whole file\n'
            '"""\n'
            "x = 1  # repro: ignore[unseeded-rng] fixture noise only\n"
        )
        report = debt_report([pkg])
        assert [(s.rule, s.line) for s in report.suppressions] == [
            ("unseeded-rng", 5)
        ]
        assert report.file_wide == []

    def test_clean_tree(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        report = debt_report([pkg])
        assert report.suppressions == []
        assert "no suppressions" in report.format_text()
