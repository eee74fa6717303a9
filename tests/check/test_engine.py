"""Engine mechanics: registry, suppressions, reporters, parse errors."""

import json

import pytest

from repro.check import CheckReport, all_rules, get_rule, run_check
from repro.check.engine import (
    PARSE_ERROR_RULE,
    FileContext,
    Finding,
    Rule,
    register_rule,
)
from repro.errors import CheckError


def lint(tmp_path, source, *, name="repro/rabbit/mod.py", rules=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_check([path], rules=rules)


class TestRegistry:
    def test_all_rules_sorted_and_documented(self):
        rules = all_rules()
        assert [r.id for r in rules] == sorted(r.id for r in rules)
        assert len(rules) == 11
        for rule in rules:
            assert rule.rationale

    def test_get_rule_unknown_id(self):
        with pytest.raises(CheckError, match="unknown rule"):
            get_rule("no-such-rule")

    @pytest.mark.parametrize(
        "retired",
        [
            "blocking-call-in-async",
            "private-atomic-state",
            "int32-index",
            "float-index-array",
        ],
    )
    def test_merged_lexical_rule_ids_are_gone(self, retired):
        # Folded into their analyzers without aliases.
        with pytest.raises(CheckError, match="unknown rule"):
            get_rule(retired)

    def test_register_rejects_bad_ids(self):
        class Bad(Rule):
            id = "Not_Kebab"
            rationale = "x"

        with pytest.raises(CheckError, match="kebab-case"):
            register_rule(Bad())

    def test_register_rejects_reserved_and_duplicate(self):
        class Reserved(Rule):
            id = PARSE_ERROR_RULE
            rationale = "x"

        with pytest.raises(CheckError, match="reserved"):
            register_rule(Reserved())

        class Dup(Rule):
            id = "layering"
            rationale = "x"

        with pytest.raises(CheckError, match="duplicate"):
            register_rule(Dup())

    def test_register_requires_rationale(self):
        class NoWhy(Rule):
            id = "some-rule"
            rationale = ""

        with pytest.raises(CheckError, match="rationale"):
            register_rule(NoWhy())


class TestSuppressions:
    SOURCE = "import threading\nlock = threading.Lock()\n"

    def test_finding_without_pragma(self, tmp_path):
        report = lint(tmp_path, self.SOURCE, rules=["lock-in-lockfree-path"])
        assert not report.ok
        assert report.findings[0].rule == "lock-in-lockfree-path"

    def test_same_line_pragma(self, tmp_path):
        src = (
            "import threading\n"
            "lock = threading.Lock()"
            "  # repro: ignore[lock-in-lockfree-path] testing\n"
        )
        assert lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        src = (
            "import threading\n"
            "# repro: ignore[lock-in-lockfree-path] testing\n"
            "lock = threading.Lock()\n"
        )
        assert lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_multiline_justification_reaches_the_code(self, tmp_path):
        src = (
            "import threading\n"
            "# repro: ignore[lock-in-lockfree-path]  a justification\n"
            "# that spills onto a second comment line\n"
            "\n"
            "lock = threading.Lock()\n"
        )
        assert lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "import threading\n"
            "lock = threading.Lock()  # repro: ignore[layering] wrong id\n"
        )
        assert not lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_ignore_file_pragma(self, tmp_path):
        src = (
            "# repro: ignore-file[lock-in-lockfree-path] test fixture\n"
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
        )
        assert lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_comma_separated_rule_ids(self, tmp_path):
        src = (
            "import threading\n"
            "lock = threading.Lock()"
            "  # repro: ignore[layering, lock-in-lockfree-path] both\n"
        )
        assert lint(tmp_path, src, rules=["lock-in-lockfree-path"]).ok

    def test_pragma_text_in_a_docstring_is_not_a_suppression(self, tmp_path):
        # Docs that show the pragma syntax are not pragmas: only comments
        # (as the tokenizer sees them) count.  The docstring's last line
        # reads like a standalone pragma right above the flagged line.
        src = (
            "import threading\n"
            "\n"
            "\n"
            "def make():\n"
            '    """Accept a finding file-wide with\n'
            "\n"
            "    # repro: ignore-file[lock-in-lockfree-path]  whole file\n"
            "\n"
            "    or on the next line with\n"
            "\n"
            '    # repro: ignore[lock-in-lockfree-path]  why"""\n'
            "    return threading.Lock()\n"
            "\n"
            "\n"
            "x = 1  # repro: ignore[unseeded-rng] fixture noise only\n"
        )
        report = lint(tmp_path, src, rules=["lock-in-lockfree-path"])
        assert [(f.rule, f.line) for f in report.findings] == [
            ("lock-in-lockfree-path", 12)
        ]
        ctx = FileContext(tmp_path / "repro/rabbit/mod.py")
        assert [(s.rule, s.line) for s in ctx.pragmas] == [("unseeded-rng", 15)]


class TestParseErrors:
    def test_reported_under_reserved_rule(self, tmp_path):
        report = lint(tmp_path, "def broken(:\n")
        assert not report.ok
        assert report.findings[0].rule == PARSE_ERROR_RULE
        assert "cannot parse" in report.findings[0].message

    def test_parse_error_not_suppressible(self, tmp_path):
        src = "# repro: ignore-file[parse-error]\ndef broken(:\n"
        report = lint(tmp_path, src)
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]


class TestReporters:
    def make_report(self):
        return CheckReport(
            findings=[
                Finding(
                    rule="layering",
                    path="src/repro/graph/x.py",
                    line=3,
                    col=1,
                    message="nope",
                )
            ],
            files_checked=2,
            rules_run=["layering"],
        )

    def test_text_format(self):
        text = self.make_report().format_text()
        assert "src/repro/graph/x.py:3:1: [layering] nope" in text
        assert "1 finding(s) in 2 file(s)" in text

    def test_clean_text_format(self):
        report = CheckReport(findings=[], files_checked=5, rules_run=["a-b"])
        assert report.ok
        assert "clean" in report.format_text()

    def test_json_format_round_trips(self):
        doc = json.loads(self.make_report().to_json())
        assert doc["ok"] is False
        assert doc["files_checked"] == 2
        assert doc["findings"][0]["rule"] == "layering"
        assert doc["findings"][0]["line"] == 3

    def test_json_clean(self, tmp_path):
        report = lint(tmp_path, "x = 1\n")
        doc = json.loads(report.to_json())
        assert doc["ok"] is True and doc["findings"] == []


class TestRunCheck:
    def test_missing_path_raises(self):
        with pytest.raises(CheckError, match="no such file"):
            run_check(["definitely/not/here"])

    def test_unknown_rule_selection_raises(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(CheckError, match="unknown rule"):
            run_check([tmp_path], rules=["bogus-rule"])

    def test_directory_expansion_and_sorted_findings(self, tmp_path):
        root = tmp_path / "repro" / "parallel"
        root.mkdir(parents=True)
        (root / "b.py").write_text(
            "import threading\nlock = threading.Lock()\n"
        )
        (root / "a.py").write_text(
            "import threading\nlock = threading.Lock()\n"
        )
        report = run_check([tmp_path], rules=["lock-in-lockfree-path"])
        assert len(report.findings) == 2
        assert report.findings[0].path < report.findings[1].path

    def test_scope_excludes_out_of_path_files(self, tmp_path):
        report = lint(
            tmp_path,
            "import threading\nlock = threading.Lock()\n",
            name="repro/obs/elsewhere.py",
            rules=["lock-in-lockfree-path"],
        )
        assert report.ok  # rule scoped to rabbit/ + parallel/ only


class TestFileContext:
    def test_module_name_anchoring(self, tmp_path):
        path = tmp_path / "src" / "repro" / "graph" / "csr.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert FileContext(path).module == "repro.graph.csr"

    def test_init_module_name(self, tmp_path):
        path = tmp_path / "src" / "repro" / "graph" / "__init__.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert FileContext(path).module == "repro.graph"

    def test_non_repro_file_has_no_module(self, tmp_path):
        path = tmp_path / "scripts" / "tool.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert FileContext(path).module is None
