from __future__ import annotations

import pytest

from conftest import DIM
from lgr import (
    AnswerAction,
    CallTool,
    Caption,
    CaptionStore,
    Config,
    HashProvider,
    Label,
    MemoryGraph,
    Observation,
    Planner,
    Pose,
    Router,
    RuleBasedPlanner,
    ScriptedPlanner,
    SessionStats,
    fallback_percentage,
)


class AlwaysCallPlanner(Planner):
    """Adversarial planner: never answers."""

    def next_action(self, query, context):
        return CallTool("t_position", {"x": 0.0, "y": 0.0, "z": 0.0, "k": 1})


def make_state(cfg=None, seed=31):
    cfg = cfg or Config(embedding_dim=DIM)
    provider = HashProvider(seed=seed, dim=DIM)
    graph = MemoryGraph(cfg)
    captions = CaptionStore(cfg)
    return cfg, provider, graph, captions


def ingest_entity(graph, provider, label, pose, t=0.0):
    graph.ingest_observation(
        Observation(
            frame_id=f"f-{label}-{t}",
            pose=pose,
            time=t,
            labels=(Label(label, provider.embed(label)),),
        )
    )


def add_caption(captions, provider, text, pose, t):
    captions.insert_caption(
        Observation(
            frame_id=f"c-{t}",
            pose=pose,
            time=t,
            caption=Caption(text, provider.embed(text)),
        )
    )


class TestRouterLoop:
    def test_graph_hit_answers_without_vector_call(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "hydrant", Pose(4.0, 5.0, 0.0), t=12.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=3), cfg=cfg)
        answer = router.answer_query("where is the hydrant")
        assert answer.pose == graph.get_node(1).pose
        assert [r.tool for r in answer.trace] == ["t_semantic"]
        assert router.stats.n_queries == 1
        assert router.stats.n_vector_calls == 0
        assert not answer.gave_up

    def test_weak_graph_hit_falls_back_to_captions(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "hydrant", Pose(4.0, 5.0, 0.0))
        add_caption(captions, provider, "a long empty corridor", Pose(1.0, 1.0), 30.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=3), cfg=cfg)
        answer = router.answer_query("where is the zebra")
        assert [r.tool for r in answer.trace] == ["t_semantic", "captions_text"]
        assert router.stats.n_vector_calls == 1
        assert answer.pose == Pose(1.0, 1.0)
        assert "corridor" in answer.text

    def test_empty_graph_falls_back(self):
        cfg, provider, graph, captions = make_state()
        add_caption(captions, provider, "boxes on a shelf", Pose(0.0, 2.0), 5.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=2), cfg=cfg)
        answer = router.answer_query("where is the box")
        assert [r.tool for r in answer.trace] == ["t_semantic", "captions_text"]
        assert not answer.gave_up

    def test_everything_empty_gives_up(self):
        cfg, provider, graph, captions = make_state()
        router = Router(graph, captions, provider, RuleBasedPlanner(), cfg=cfg)
        answer = router.answer_query("where is the box")
        assert answer.gave_up
        assert not answer.truncated
        assert answer.pose is None and answer.time is None

    def test_adversarial_planner_hits_iteration_bound(self):
        cfg, provider, graph, captions = make_state()
        router = Router(graph, captions, provider, AlwaysCallPlanner(), cfg=cfg)
        answer = router.answer_query("loop forever")
        assert answer.gave_up and answer.truncated
        assert len(answer.trace) == cfg.max_planner_iterations

    def test_unknown_tool_recorded_and_loop_continues(self):
        cfg, provider, graph, captions = make_state()
        planner = ScriptedPlanner(
            {
                "q": [
                    CallTool("frobnicate", {}),
                    AnswerAction(text="recovered"),
                ]
            }
        )
        router = Router(graph, captions, provider, planner, cfg=cfg)
        answer = router.answer_query("q")
        assert answer.text == "recovered"
        assert answer.trace[0].error == "unknown tool: frobnicate"
        assert not answer.trace[0].ok

    def test_bad_args_recorded_as_error(self):
        cfg, provider, graph, captions = make_state()
        planner = ScriptedPlanner(
            {"q": [CallTool("t_semantic", {"nope": 1}), AnswerAction(text="ok")]}
        )
        router = Router(graph, captions, provider, planner, cfg=cfg)
        answer = router.answer_query("q")
        assert answer.trace[0].error is not None
        assert answer.text == "ok"

    def test_explicit_clock_routes_to_time_tool(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "bench", Pose(1.0, 0.0), t=100.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=1), cfg=cfg)
        answer = router.answer_query("what did you see at 00:01:40?")
        assert [r.tool for r in answer.trace] == ["t_time"]
        assert answer.time == 100.0

    def test_when_query_reads_last_seen(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "bench", Pose(1.0, 0.0), t=7.0)
        ingest_entity(graph, provider, "bench", Pose(1.5, 0.0), t=42.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=1), cfg=cfg)
        answer = router.answer_query("when did you last see the bench?")
        assert answer.time == 42.0
        assert [r.tool for r in answer.trace] == ["t_semantic"]

    def test_near_coordinates_route_to_position_tool(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "crate", Pose(10.0, 10.0))
        router = Router(graph, captions, provider, RuleBasedPlanner(k=1), cfg=cfg)
        answer = router.answer_query("what is near (10.0, 10.0, 0.0)?")
        assert [r.tool for r in answer.trace] == ["t_position"]
        assert answer.pose == Pose(10.0, 10.0)

    def test_determinism(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "bench", Pose(1.0, 0.0), t=7.0)
        add_caption(captions, provider, "a bench in the park", Pose(1.0, 0.0), 7.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=2), cfg=cfg)
        a = router.answer_query("where is the bench?")
        b = router.answer_query("where is the bench?")
        assert a.text == b.text and a.pose == b.pose and a.time == b.time
        assert [r.tool for r in a.trace] == [r.tool for r in b.trace]


class TestRegistry:
    def test_register_and_call_custom_tool(self):
        cfg, provider, graph, captions = make_state()
        planner = ScriptedPlanner(
            {"q": [CallTool("echo", {"v": "hi"}), AnswerAction(text="done")]}
        )
        router = Router(graph, captions, provider, planner, cfg=cfg)
        router.register_tool(
            "echo",
            {"description": "echo", "params": [{"name": "v", "type": "string"}]},
            lambda v: [v],
        )
        answer = router.answer_query("q")
        assert answer.trace[0].hits == ["hi"]
        assert answer.text == "done"

    def test_duplicate_name_rejected(self):
        cfg, provider, graph, captions = make_state()
        router = Router(graph, captions, provider, ScriptedPlanner({}), cfg=cfg)
        with pytest.raises(ValueError, match="already registered"):
            router.register_tool("t_semantic", {}, lambda: [])

    def test_schema_export_lists_all_builtins(self):
        cfg, provider, graph, captions = make_state()
        router = Router(graph, captions, provider, ScriptedPlanner({}), cfg=cfg)
        schemas = router.tool_schemas()
        names = [s["name"] for s in schemas]
        assert names == [
            "t_semantic",
            "t_position",
            "t_time",
            "captions_text",
            "captions_position",
            "captions_time",
        ]
        for s in schemas:
            assert "description" in s and "params" in s
            assert isinstance(s["vector_store"], bool)


class TestFallbackAccounting:
    def test_simple_fractions(self):
        stats = SessionStats()
        for i in range(10):
            stats.record(["t_semantic"], 0.001, used_vector=False)
        assert fallback_percentage(stats) == 0.0
        stats = SessionStats(n_queries=30, n_vector_calls=28)
        assert fallback_percentage(stats) == 28 / 30

    def test_zero_queries_rejected(self):
        with pytest.raises(ValueError, match="no queries"):
            fallback_percentage(SessionStats())

    def test_vector_flag_set_once_per_query(self):
        cfg, provider, graph, captions = make_state()
        add_caption(captions, provider, "scene", Pose(0.0, 0.0), 1.0)
        planner = ScriptedPlanner(
            {
                "q": [
                    CallTool("captions_text", {"query": "scene", "k": 1}),
                    CallTool("captions_time", {"t": 0.0, "k": 1}),
                    AnswerAction(text="done"),
                ]
            }
        )
        router = Router(graph, captions, provider, planner, cfg=cfg)
        router.answer_query("q")
        assert router.stats.n_queries == 1
        assert router.stats.n_vector_calls == 1

    def test_scripted_trace_accounting_is_exact(self):
        cfg, provider, graph, captions = make_state()
        add_caption(captions, provider, "scene", Pose(0.0, 0.0), 1.0)
        ingest_entity(graph, provider, "bench", Pose(0.0, 0.0))
        scripts = {}
        expected_vector = 0
        for i in range(12):
            if i % 3 == 0:
                scripts[f"q{i}"] = [
                    CallTool("t_semantic", {"query": "bench", "k": 1}),
                    AnswerAction(text="graph"),
                ]
            else:
                expected_vector += 1
                scripts[f"q{i}"] = [
                    CallTool("captions_text", {"query": "scene", "k": 1}),
                    AnswerAction(text="vector"),
                ]
        router = Router(graph, captions, provider, ScriptedPlanner(scripts), cfg=cfg)
        for q in scripts:
            router.answer_query(q)
        assert fallback_percentage(router.stats) == expected_vector / 12
        assert router.stats.traces.count(("captions_text",)) == expected_vector

    def test_stats_round_trip(self):
        stats = SessionStats(n_queries=3, n_vector_calls=1, latencies=[0.1, 0.2, 0.3],
                             traces=[("t_semantic",), (), ("captions_text",)])
        clone = SessionStats.from_dict(stats.to_dict())
        assert clone == stats


class TestAnswerShape:
    def test_trace_capped_by_iteration_budget(self):
        cfg = Config(embedding_dim=DIM, max_planner_iterations=3)
        _, provider, graph, captions = make_state(cfg)
        router = Router(graph, captions, provider, AlwaysCallPlanner(), cfg=cfg)
        answer = router.answer_query("any")
        assert len(answer.trace) == 3

    def test_answer_serializes(self):
        cfg, provider, graph, captions = make_state()
        ingest_entity(graph, provider, "bench", Pose(1.0, 0.0), t=7.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=1), cfg=cfg)
        d = router.answer_query("where is the bench?").to_dict()
        assert d["pose"]["x"] == 1.0
        assert d["trace"][0]["tool"] == "t_semantic"
        assert isinstance(d["elapsed"], float)


class TestCaptionFallback:
    """When the graph has nothing, each query shape falls back to its
    caption-store twin with the same parsed arguments."""

    def fallback(self, query, k=4):
        cfg, provider, graph, captions = make_state()
        add_caption(captions, provider, "boxes on a shelf", Pose(0.0, 2.0), 5.0)
        router = Router(graph, captions, provider, RuleBasedPlanner(k=k), cfg=cfg)
        answer = router.answer_query(query)
        assert not answer.gave_up
        assert [r.ok for r in answer.trace] == [True, True]
        assert answer.trace[0].hits == []
        return [(r.tool, r.args) for r in answer.trace]

    @pytest.mark.parametrize(
        "clock, hms",
        [("00:01:40", (0, 1, 40)), ("7:05:09", (7, 5, 9)), ("125:59:00", (125, 59, 0))],
    )
    def test_clock_query_falls_back_to_captions_time(self, clock, hms):
        hh, mm, ss = hms
        assert self.fallback(f"what did you see at {clock}?") == [
            ("t_time", {"hh": hh, "mm": mm, "ss": ss, "k": 4}),
            ("captions_time", {"t": 3600.0 * hh + 60.0 * mm + ss, "k": 4}),
        ]

    @pytest.mark.parametrize(
        "coords, xyz",
        [("(10.0, 10.0, 0.0)", (10.0, 10.0, 0.0)), ("(-3.25, 7, -0.5)", (-3.25, 7.0, -0.5)),
         ("1, -2.5, 3", (1.0, -2.5, 3.0))],
    )
    def test_near_query_falls_back_to_captions_position(self, coords, xyz):
        x, y, z = xyz
        assert self.fallback(f"what is near {coords}?", k=2) == [
            ("t_position", {"x": x, "y": y, "z": z, "k": 2}),
            ("captions_position", {"x": x, "y": y, "z": z, "k": 2}),
        ]

    @pytest.mark.parametrize(
        "query, subject",
        [("where is the red crate?", "red crate"), ("describe the kitchen", "kitchen"),
         ("when did you last see the bench?", "bench")],
    )
    def test_descriptive_query_falls_back_to_captions_text(self, query, subject):
        assert self.fallback(query, k=1) == [
            ("t_semantic", {"query": subject, "k": 1}),
            ("captions_text", {"query": subject, "k": 1}),
        ]
