"""The check subsystem self-hosts: the project's own tree lints clean.

This is the teeth of the whole exercise — every rule runs against
``src/`` exactly as CI does, so a regression in the codebase (or a rule
gone trigger-happy) fails here first.
"""

from pathlib import Path

from repro.check import get_rule, run_check, scan_suppressions
from repro.check.engine import FileContext, iter_python_files
from repro.errors import CheckError

REPO_ROOT = Path(__file__).resolve().parents[2]


def src_contexts():
    """Every file under ``src/``, parsed, with repo-relative paths."""
    ctxs = []
    for path in iter_python_files([REPO_ROOT / "src"]):
        ctx = FileContext(path, rel=path.relative_to(REPO_ROOT).as_posix())
        ctx.tree
        ctxs.append(ctx)
    return ctxs


class TestSelfHost:
    def test_src_tree_is_clean(self):
        report = run_check([REPO_ROOT / "src"])
        assert report.ok, report.format_text()

    def test_every_registered_rule_ran(self):
        report = run_check([REPO_ROOT / "src"])
        assert len(report.rules_run) == 11
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
        from repro.check.facts import OWNERSHIP_FACTS

        ctxs = src_contexts()
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
        bare = [
            f"{s.path}:{s.line}"
            for s in scan_suppressions(src_contexts())
            if not s.justification
        ]
        assert bare == [], f"suppressions without justification: {bare}"

    def test_every_pragma_names_a_live_rule_for_its_file(self):
        # A pragma naming a retired rule, or a rule whose scope does not
        # cover the file, suppresses nothing and only misleads readers.
        ctxs = {ctx.rel: ctx for ctx in src_contexts()}
        dead = []
        for supp in scan_suppressions(list(ctxs.values())):
            try:
                live = get_rule(supp.rule).applies_to(ctxs[supp.path])
            except CheckError:
                live = False
            if not live:
                dead.append(f"{supp.path}:{supp.line} [{supp.rule}]")
        assert dead == [], f"pragmas that cannot suppress anything: {dead}"
