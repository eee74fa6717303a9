"""The check subsystem self-hosts: the project's own tree lints clean.

This is the teeth of the whole exercise — every rule runs against
``src/`` exactly as CI does, so a regression in the codebase (or a rule
gone trigger-happy) fails here first.
"""

from pathlib import Path

from repro.check import run_check

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfHost:
    def test_src_tree_is_clean(self):
        report = run_check([REPO_ROOT / "src"])
        assert report.ok, report.format_text()

    def test_every_registered_rule_ran(self):
        report = run_check([REPO_ROOT / "src"])
        assert len(report.rules_run) == 15
        assert report.files_checked > 90

    def test_interprocedural_analyzers_are_registered(self):
        report = run_check([REPO_ROOT / "src"])
        for rule_id in (
            "async-blocking-reachable",
            "state-ownership",
            "dtype-flow",
        ):
            assert rule_id in report.rules_run

    def test_declared_facts_bind_to_real_functions(self):
        # Every DISPATCH_EDGES / OWNERSHIP_FACTS qualname must still
        # name a function in the tree — facts must not rot as code moves.
        from repro.check.callgraph import build_callgraph
        from repro.check.engine import FileContext, iter_python_files
        from repro.check.facts import OWNERSHIP_FACTS

        ctxs = []
        for path in iter_python_files([REPO_ROOT / "src"]):
            rel = path.relative_to(REPO_ROOT).as_posix()
            ctx = FileContext(path, rel=rel)
            ctx.tree
            ctxs.append(ctx)
        graph = build_callgraph(ctxs)
        assert graph.unbound_facts == []
        missing = [
            entry
            for fact in OWNERSHIP_FACTS
            for entry in fact.entry_points
            if entry not in graph.nodes
        ]
        assert missing == [], f"ownership entry points not found: {missing}"

    def test_intentional_suppressions_carry_justifications(self):
        # Every inline pragma must say *why* (text after the bracket);
        # a bare pragma is a suppression nobody can review.
        import re

        pragma = re.compile(
            r"#\s*repro:\s*(?:ignore|ignore-file)\[[^\]]+\](?P<why>.*)"
        )
        bare = []
        for path in (REPO_ROOT / "src").rglob("*.py"):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                m = pragma.search(line)
                if m and not m.group("why").strip():
                    bare.append(f"{path}:{lineno}")
        assert bare == [], f"suppressions without justification: {bare}"
