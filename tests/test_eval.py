from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DIM
from lgr import (
    AnswerAction,
    CaptionStore,
    Config,
    FixtureProvider,
    HashProvider,
    MemoryGraph,
    Pose,
    QAItem,
    Router,
    RuleBasedPlanner,
    SessionState,
    evaluate,
    load_qa_items,
    record_to_observation,
    save_qa_items,
    spatial_error,
    temporal_error,
    write_log,
)
from worlds import (
    ScriptedPlanner,
    SyntheticWorld,
    WorldEntity,
    build_synonym_fixture,
    generate_synthetic_session,
    grid_tour_world,
)


class TestErrorMetrics:
    def test_zero_error(self):
        p = Pose(1.0, 2.0, 3.0)
        assert spatial_error(p, p) == 0.0
        assert temporal_error(5.0, 5.0) == 0.0

    def test_three_four_five(self):
        assert spatial_error(Pose(3.0, 4.0, 0.0), Pose(0.0, 0.0, 0.0)) == 5.0

    def test_temporal_is_l1(self):
        assert temporal_error(120.0, 300.0) == 180.0
        assert temporal_error(300.0, 120.0) == 180.0

    def test_non_finite_pose_rejected(self):
        with pytest.raises(ValueError):
            spatial_error(Pose(math.nan, 0.0), Pose(0.0, 0.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            temporal_error(-1.0, 0.0)


class TestQAItems:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            QAItem("q", "weird")
        with pytest.raises(ValueError, match="gt_pose"):
            QAItem("q", "spatial")
        with pytest.raises(ValueError, match="gt_time"):
            QAItem("q", "temporal")

    def test_file_round_trip(self, tmp_path):
        items = [
            QAItem("where is it", "spatial", gt_pose=Pose(1.0, 2.0, 0.0, 0.1)),
            QAItem("when was it", "temporal", gt_time=42.0),
            QAItem("what was there", "descriptive"),
        ]
        path = tmp_path / "qa.jsonl"
        save_qa_items(items, path)
        assert load_qa_items(path) == items

    @pytest.mark.parametrize(
        "line",
        [
            '{"question": "q", "kind": "spatial"}',
            "[1, 2]",
            '{"question": "q", "kind": "spatial", "gt_pose": 5}',
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": null, "y": 1.0}}',
            # integers too large for a float: were an OverflowError
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": 1%s, "y": 1.0}}' % ("0" * 400),
            '{"question": "q", "kind": "temporal", "gt_time": 1%s}' % ("0" * 400),
            # ground truth that cannot be scored: loaded, then failed or scored as NaN
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": NaN, "y": 0}}',
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": 0, "y": 0, "yaw": -Infinity}}',
            '{"question": "q", "kind": "temporal", "gt_time": -5}',
            '{"question": "q", "kind": "temporal", "gt_time": Infinity}',
            '{"question": "q", "kind": "descriptive", "gt_time": NaN}',
        ],
        ids=["spatial-without-pose", "list", "pose-is-a-number", "pose-x-null", "pose-x-huge",
             "time-huge", "pose-x-nan", "pose-yaw-neg-inf", "time-negative", "time-inf",
             "time-nan"],
    )
    def test_bad_line_reports_position(self, tmp_path, line):
        path = tmp_path / "qa.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1: bad QA item: "):
            load_qa_items(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"question": "q", "kind": "temporal", "gt_time": "12"}',  # was 12.0
            '{"question": "q", "kind": "temporal", "gt_time": true}',  # was 1.0
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": true, "y": 1.0}}',
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": 1.0, "y": "2"}}',
            '{"question": 5, "kind": "descriptive"}',  # was the question '5'
            '{"question": "q", "kind": ["temporal"], "gt_time": 1.0}',
        ],
        ids=["time-string", "time-bool", "pose-x-bool", "pose-y-string", "question-number",
             "kind-list"],
    )
    def test_mistyped_field_reports_position(self, tmp_path, line):
        path = tmp_path / "qa.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1: bad QA item: .*must be"):
            load_qa_items(path)


# ----------------------------------------------------------------------
# fuzzing the QA reader with mutated lines
# ----------------------------------------------------------------------

QA_FIELDS = (
    ("question",), ("kind",), ("gt_pose",), ("gt_pose", "x"), ("gt_pose", "y"),
    ("gt_pose", "z"), ("gt_pose", "yaw"), ("gt_time",),
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _qa_line(i: int) -> dict:
    return {"question": f"where is thing {i}?", "kind": ("spatial", "temporal", "descriptive")[i % 3],
            "gt_pose": {"x": 1.0, "y": 2.0, "z": 0.5, "yaw": 0.25}, "gt_time": 10.0 * i}


def _read_qa(reader, path):
    """The items as JSON text, or the ``path:line`` a ValueError names."""
    try:
        return [json.dumps(item.to_json_dict(), sort_keys=True) for item in reader(path)]
    except ValueError as exc:
        assert type(exc) is ValueError
        where, sep, _ = str(exc).partition(": bad QA item: ")
        assert sep, exc
        return where


@settings(max_examples=300, deadline=None)
@given(
    at=st.integers(0, 2),
    field=st.sampled_from(QA_FIELDS),
    how=st.sampled_from(("swap", "drop", "nest", "truncate", "huge", "special")),
    value=JSON_VALUES,
    special=st.sampled_from((math.nan, math.inf, -math.inf, -5.0, -0.0)),
    flag=st.booleans(),
    cut=st.floats(0.0, 1.0),
)
def test_mutated_qa_line_is_read_as_the_strict_reader_reads_it(at, field, how, value, special,
                                                               flag, cut):
    """A QA file of three lines, one of them mutated: ``load_qa_items``
    returns what the strict reader accepts, or raises ValueError naming
    the line where it fails, and never any other type."""
    lines: list = [_qa_line(i) for i in range(3)]
    line = lines[at]
    *parents, key = field
    holder = line
    for p in parents:
        holder = holder[p]
    if how == "swap":
        holder[key] = value
    elif how == "drop":
        del holder[key]
    elif how == "nest":
        holder[key] = [holder[key]] if flag else {"v": holder[key]}
    elif how == "huge":  # a JSON integer too large for a float
        holder[key] = 10**400 if flag else -(10**400)
    elif how == "special":  # NaN, an infinity or a negative number
        holder[key] = special
    else:
        text = json.dumps(line)
        lines[at] = text[: int(cut * (len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "qa.jsonl"
        path.write_text("".join((o if isinstance(o, str) else json.dumps(o)) + "\n" for o in lines))
        assert _read_qa(load_qa_items, path) == _read_qa(oracles.read_qa_strict, path)


def scripted_router(answers: dict[str, AnswerAction]) -> Router:
    cfg = Config(embedding_dim=DIM)
    provider = HashProvider(seed=1, dim=DIM)
    planner = ScriptedPlanner({q: [a] for q, a in answers.items()})
    return Router(MemoryGraph(cfg), CaptionStore(cfg), provider, planner, cfg=cfg)


class TestEvaluate:
    def test_empty_items_rejected(self):
        router = scripted_router({})
        with pytest.raises(ValueError, match="empty"):
            evaluate(router, [])

    def test_spatial_gate_inclusive_at_25m(self):
        gt = Pose(0.0, 0.0, 0.0)
        router = scripted_router(
            {
                "at gate": AnswerAction(text="a", pose=Pose(25.0, 0.0, 0.0)),
                "inside": AnswerAction(text="b", pose=Pose(24.9, 0.0, 0.0)),
                "outside": AnswerAction(text="c", pose=Pose(25.1, 0.0, 0.0)),
            }
        )
        report = evaluate(
            router,
            [
                QAItem("at gate", "spatial", gt_pose=gt),
                QAItem("inside", "spatial", gt_pose=gt),
                QAItem("outside", "spatial", gt_pose=gt),
            ],
        )
        flags = [r.correct for r in report.rows]
        assert flags == [True, True, False]
        assert report.positional_accuracy == pytest.approx(2 / 3)

    def test_temporal_gate_inclusive_at_180s(self):
        router = scripted_router(
            {
                "exact": AnswerAction(text="a", time=300.0),
                "at gate": AnswerAction(text="b", time=120.0),
                "outside": AnswerAction(text="c", time=481.0),
            }
        )
        report = evaluate(
            router,
            [
                QAItem("exact", "temporal", gt_time=300.0),
                QAItem("at gate", "temporal", gt_time=300.0),
                QAItem("outside", "temporal", gt_time=300.0),
            ],
        )
        assert [r.correct for r in report.rows] == [True, True, False]
        assert report.mean_temporal_error == pytest.approx((0 + 180 + 181) / 3)

    def test_giveup_counts_incorrect_but_not_in_mean_error(self):
        router = scripted_router(
            {"found": AnswerAction(text="a", time=100.0)}
        )  # "missing" has no script entry: the planner gives up
        report = evaluate(
            router,
            [
                QAItem("found", "temporal", gt_time=100.0),
                QAItem("missing", "temporal", gt_time=100.0),
            ],
        )
        assert report.temporal_accuracy == 0.5
        assert report.mean_temporal_error == 0.0
        missing_row = report.rows[1]
        assert missing_row.gave_up and not missing_row.answered

    def test_descriptive_rows_are_trace_only(self):
        router = scripted_router({"look": AnswerAction(text="a scene")})
        report = evaluate(router, [QAItem("look", "descriptive")])
        assert report.rows[0].correct is None
        assert report.positional_accuracy is None
        assert report.temporal_accuracy is None

    def test_stores_not_mutated(self):
        cfg = Config(embedding_dim=DIM)
        provider = HashProvider(seed=1, dim=DIM)
        graph, captions = MemoryGraph(cfg), CaptionStore(cfg)
        router = Router(graph, captions, provider, RuleBasedPlanner(), cfg=cfg)
        evaluate(router, [QAItem("where is the cat", "spatial", gt_pose=Pose(0, 0))])
        assert graph.node_count() == 0
        assert captions.record_count() == 0

    def test_table_export_has_row_per_item(self):
        router = scripted_router({"found": AnswerAction(text="a", time=100.0)})
        report = evaluate(router, [QAItem("found", "temporal", gt_time=100.0)])
        table = report.to_table()
        assert len(table.splitlines()) == 3  # header, one row, summary
        assert "found" in table


class TestSyntheticGeneration:
    def world_one_entity(self, radius=50.0):
        return SyntheticWorld(
            entities=(WorldEntity("statue", Pose(0.0, 0.0)),),
            trajectory=((0.0, Pose(0.0, 0.0)), (10.0, Pose(1.0, 0.0))),
            visibility_radius=radius,
        )

    def test_frame_count_matches_subsampling_arithmetic(self):
        records, items = generate_synthetic_session(
            0, self.world_one_entity(), Config(embedding_dim=DIM)
        )
        assert len(records) == 6
        assert [r.t for r in records] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert all(len(r.labels) == 1 for r in records)
        assert len(items) == 2

    def test_same_seed_byte_identical_log(self, tmp_path):
        world = grid_tour_world(["bench", "statue", "fountain"], duration=60.0)
        cfg = Config(embedding_dim=DIM)
        a, _ = generate_synthetic_session(7, world, cfg)
        b, _ = generate_synthetic_session(7, world, cfg)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(a, pa)
        write_log(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_changes_synonym_choices(self):
        table, synonyms = build_synonym_fixture(["bench"], dim=DIM, seed=3)
        world = SyntheticWorld(
            entities=(WorldEntity("bench", Pose(0.0, 0.0)),),
            trajectory=((0.0, Pose(0.0, 0.0)), (200.0, Pose(0.0, 0.0))),
            visibility_radius=5.0,
            synonyms=synonyms,
        )
        cfg = Config(embedding_dim=DIM)
        a, _ = generate_synthetic_session(1, world, cfg)
        b, _ = generate_synthetic_session(2, world, cfg)
        assert [r.labels for r in a] != [r.labels for r in b]

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError, match="no entities"):
            generate_synthetic_session(
                0,
                SyntheticWorld(entities=(), trajectory=((0.0, Pose(0, 0)),)),
            )

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            generate_synthetic_session(
                0,
                SyntheticWorld(
                    entities=(WorldEntity("x", Pose(0, 0)),),
                    trajectory=((0.0, Pose(0, 0)),),
                ),
            )

    def test_node_pose_is_mean_of_sighting_poses(self):
        # independent replay: collect the generator's sighting poses for
        # the entity, then check the ingested node pose equals their mean
        world = SyntheticWorld(
            entities=(WorldEntity("kiosk", Pose(10.0, 0.0)),),
            trajectory=((0.0, Pose(6.0, 0.0)), (60.0, Pose(14.0, 0.0))),
            visibility_radius=2.4,
        )
        cfg = Config(embedding_dim=DIM)
        provider = HashProvider(seed=5, dim=DIM)
        records, _ = generate_synthetic_session(0, world, cfg)
        sightings = [
            (r.pose.x, r.pose.y, r.pose.z) for r in records if "kiosk" in r.labels
        ]
        assert sightings, "trajectory was expected to pass within visibility"
        graph = MemoryGraph(cfg)
        for r in records:
            graph.ingest_observation(record_to_observation(r, cfg, provider))
        assert graph.node_count() == 1
        node = graph.get_node(1)
        mean = np.array(sightings).mean(axis=0)
        assert abs(node.pose.x - mean[0]) <= 1e-9
        assert abs(node.pose.y - mean[1]) <= 1e-9
        assert spatial_error(node.pose, Pose(10.0, 0.0)) <= world.visibility_radius

    def test_labels_drawn_from_synonym_table(self):
        table, synonyms = build_synonym_fixture(["bench"], dim=DIM, seed=3)
        world = SyntheticWorld(
            entities=(WorldEntity("bench", Pose(0.0, 0.0)),),
            trajectory=((0.0, Pose(0.0, 0.0)), (100.0, Pose(0.0, 0.0))),
            visibility_radius=5.0,
            synonyms=synonyms,
        )
        records, _ = generate_synthetic_session(4, world, Config(embedding_dim=DIM))
        used = {label for r in records for label in r.labels}
        assert used <= set(synonyms["bench"])
        assert len(used) > 1  # with 51 frames, more than one spelling shows up


class TestEndToEndAgainstReplayOracle:
    def test_report_matches_independent_replay(self):
        # build a small session, evaluate it, then recompute every
        # accuracy by hand from fresh answer_query calls (the planner is
        # deterministic and the stores are read-only during evaluation)
        cfg = Config(embedding_dim=DIM)
        provider = HashProvider(seed=44, dim=DIM)
        world = grid_tour_world(
            ["hydrant", "bench", "statue", "kiosk"], spacing=30.0, duration=120.0
        )
        records, items = generate_synthetic_session(3, world, cfg)
        state = SessionState.new(cfg, provider)
        for r in records:
            state.ingest(record_to_observation(r, cfg, provider))
        router = Router(state.graph, state.captions, provider, RuleBasedPlanner(), cfg=cfg)
        report = evaluate(router, items)

        correct = {"spatial": 0, "temporal": 0}
        total = {"spatial": 0, "temporal": 0}
        vector_queries = 0
        for item in items:
            answer = router.answer_query(item.question)
            total[item.kind] += 1
            if item.kind == "spatial" and answer.pose is not None:
                err = math.dist(
                    (answer.pose.x, answer.pose.y, answer.pose.z),
                    (item.gt_pose.x, item.gt_pose.y, item.gt_pose.z),
                )
                correct["spatial"] += err <= 25.0
            elif item.kind == "temporal" and answer.time is not None:
                correct["temporal"] += abs(answer.time - item.gt_time) <= 180.0
            if any(r.vector for r in answer.trace):
                vector_queries += 1
        assert report.positional_accuracy == correct["spatial"] / total["spatial"]
        assert report.temporal_accuracy == correct["temporal"] / total["temporal"]
        assert report.fallback == vector_queries / len(items)


class TestSynonymFixture:
    def test_within_and_across_margins(self):
        table, synonyms = build_synonym_fixture(
            ["bench", "statue", "kiosk"], dim=DIM, seed=9
        )
        for label, names in synonyms.items():
            assert names[0] == label
            vecs = [table[n].astype(np.float64) for n in names]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    assert float(vecs[i] @ vecs[j]) > 0.75
        cross = float(table["bench"].astype(np.float64) @ table["statue"].astype(np.float64))
        assert abs(cross) < 0.5

    def test_fixture_feeds_provider(self):
        table, synonyms = build_synonym_fixture(["bench"], dim=DIM, seed=9)
        provider = FixtureProvider(table, fallback=HashProvider(0, DIM))
        for name in synonyms["bench"]:
            assert provider.embed(name).shape == (DIM,)


class TestGridTourWorld:
    def test_passes_through_every_entity(self):
        world = grid_tour_world(["a", "b", "c", "d", "e"], spacing=30.0, duration=300.0)
        assert len(world.entities) == 5
        waypoint_poses = {(p.x, p.y) for _, p in world.trajectory}
        for entity in world.entities:
            assert (entity.pose.x, entity.pose.y) in waypoint_poses

    def test_consecutive_entities_spacing(self):
        world = grid_tour_world(["a", "b", "c", "d"], spacing=30.0)
        for (ta, pa), (tb, pb) in zip(world.trajectory, world.trajectory[1:]):
            assert spatial_error(pa, pb) == pytest.approx(30.0)
            assert tb > ta
