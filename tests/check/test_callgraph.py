"""Golden call-graph test over the fixture package.

The fixture (``tests/check/fixtures/graphpkg``) packs one instance of
every resolution path the builder supports; this test pins the exact
nodes and edges it must produce, so a resolver regression shows up as a
concrete missing/extra edge rather than a silently weaker analyzer.
"""

from pathlib import Path

from repro.check.callgraph import DYNAMIC_PREFIX, build_callgraph
from repro.check.engine import FileContext

FIXTURE = Path(__file__).parent / "fixtures" / "graphpkg"


def fixture_graph():
    ctxs = []
    for path in sorted(FIXTURE.rglob("*.py")):
        rel = path.relative_to(FIXTURE).as_posix()
        ctx = FileContext(path, rel=rel)
        ctx.tree  # force parse
        ctxs.append(ctx)
    return build_callgraph(ctxs)


def edge_set(graph):
    return {(e.caller, e.callee, e.kind) for e in graph.edges}


class TestGoldenNodes:
    def test_function_method_and_nested_nodes(self):
        graph = fixture_graph()
        node = graph.nodes["repro.alpha.outer"]
        assert (node.kind, node.is_async) == ("function", False)
        assert graph.nodes["repro.alpha.Widget.bump"].kind == "method"
        nested = graph.nodes["repro.alpha.nested_host.<locals>.inner"]
        assert nested.kind == "function"
        assert graph.nodes["repro.aio.handler"].is_async

    def test_module_nodes_exist(self):
        graph = fixture_graph()
        for module in ("repro", "repro.alpha", "repro.beta", "repro.aio"):
            node = graph.nodes[f"{module}.<module>"]
            assert node.kind == "module"

    def test_async_nodes_query(self):
        names = {n.qualname for n in fixture_graph().async_nodes()}
        assert names == {"repro.aio.handler", "repro.aio.offload"}

    def test_class_method_tables(self):
        graph = fixture_graph()
        assert (
            graph.class_methods["repro.alpha.Widget"]["bump"]
            == "repro.alpha.Widget.bump"
        )


class TestGoldenEdges:
    def test_forwarded_import_through_package_init(self):
        # ``from repro import helper`` resolves through the __init__
        # re-export to the real definition in repro.beta.
        assert (
            "repro.alpha.outer",
            "repro.beta.helper",
            "direct",
        ) in edge_set(fixture_graph())

    def test_sync_call_chain(self):
        edges = edge_set(fixture_graph())
        assert ("repro.alpha.chain_a", "repro.alpha.chain_b", "direct") in edges
        assert (
            "repro.alpha.chain_b",
            "repro.beta.blocking_helper",
            "direct",
        ) in edges

    def test_external_sink_edge(self):
        assert (
            "repro.beta.blocking_helper",
            "time.sleep",
            "external",
        ) in edge_set(fixture_graph())

    def test_constructor_resolves_to_init(self):
        assert (
            "repro.alpha.make_widget",
            "repro.alpha.Widget.__init__",
            "direct",
        ) in edge_set(fixture_graph())

    def test_local_instance_method_call(self):
        assert (
            "repro.alpha.make_widget",
            "repro.alpha.Widget.bump",
            "method",
        ) in edge_set(fixture_graph())

    def test_self_method_call(self):
        assert (
            "repro.alpha.Widget.bump",
            "repro.alpha.chain_a",
            "direct",
        ) in edge_set(fixture_graph())

    def test_self_attr_method_call_via_attr_typing(self):
        # self.buddy = Gadget() in __init__ types self.buddy.ping().
        assert (
            "repro.alpha.Widget.poke",
            "repro.alpha.Gadget.ping",
            "method",
        ) in edge_set(fixture_graph())

    def test_nested_def_edges(self):
        edges = edge_set(fixture_graph())
        assert (
            "repro.alpha.nested_host",
            "repro.alpha.nested_host.<locals>.inner",
            "direct",
        ) in edges
        assert (
            "repro.alpha.nested_host.<locals>.inner",
            "repro.beta.helper",
            "direct",
        ) in edges

    def test_executor_and_spawn_references(self):
        edges = edge_set(fixture_graph())
        assert (
            "repro.aio.handler",
            "repro.beta.blocking_helper",
            "executor",
        ) in edges
        assert (
            "repro.aio.offload",
            "repro.beta.blocking_helper",
            "spawn",
        ) in edges

    def test_untyped_receiver_becomes_dynamic_edge(self):
        # thread.start() — `thread` holds a non-project class instance.
        assert (
            "repro.aio.offload",
            f"{DYNAMIC_PREFIX}.start",
            "dynamic",
        ) in edge_set(fixture_graph())


class TestDispatchFacts:
    def test_dispatch_facts_unbound_on_fixture(self):
        # The global facts tables name real repro.order functions; none
        # exist in the fixture, so every fact must surface as unbound
        # rather than silently vanish.
        graph = fixture_graph()
        assert graph.unbound_facts
        assert all(
            caller.startswith("repro.") for caller, _ in graph.unbound_facts
        )
