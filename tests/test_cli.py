from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from lgr import (
    Caption,
    CaptionHit,
    CaptionStore,
    CallTool,
    Config,
    EvalReport,
    EvalRow,
    FixtureProvider,
    GiveUpAction,
    Label,
    LogRecord,
    MemoryGraph,
    Observation,
    Pose,
    QAItem,
    RetrievalHit,
    Router,
    RuleBasedPlanner,
    save_qa_items,
    write_log,
)
from lgr.cli import build_parser, main
from lgr.snapshot import load_snapshot
from test_eval import JSON_VALUES
from test_model import CONFIG_DOC, CONFIG_MUTATIONS, SPECIALS, config_or_refusal, mutated_config
from worlds import ScriptedPlanner


@pytest.fixture
def toy_log(tmp_path):
    """10 Hz for 10 s: subsamples to 6 observations at period 2.0."""
    return write_toy_log(tmp_path)


def write_toy_log(tmp_path):
    records = []
    for i in range(101):
        t = i / 10
        records.append(
            LogRecord(
                frame_id=f"f{i:04d}",
                t=t,
                pose=Pose(x=t, y=0.0, z=0.0, yaw=0.0),
                labels=("hydrant",) if i % 2 == 0 else ("hydrant", "bench"),
                caption=f"a path at t={t:.1f}",
            )
        )
    path = tmp_path / "session.jsonl"
    write_log(records, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_quietly(*argv):
    """``run`` for a hypothesis test, which cannot take the capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class TestIngest:
    def test_builds_snapshot_with_expected_counts(self, tmp_path, toy_log, capsys):
        snap = tmp_path / "s.lgrsnap"
        code, out, err = run(capsys, "ingest", toy_log, "--out", snap, "--delta-e", "0.75")
        assert code == 0, err
        summary = json.loads(out)
        assert summary["observations"] == 6
        assert summary["captions_inserted"] == 6
        state = load_snapshot(snap)
        assert state.captions.record_count() == 6
        # one stationary hydrant seen every frame, one bench: note the
        # robot moves 10 m, so distance gating may split entities
        assert state.graph.node_count() >= 2

    def test_flags_override_config_file(self, tmp_path, toy_log, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"subsample_period": 5.0, "embedding_dim": 48}))
        snap = tmp_path / "s.lgrsnap"
        code, out, _ = run(
            capsys, "ingest", toy_log, "--out", snap,
            "--config", cfg_file, "--period", "2.0",
        )
        assert code == 0
        assert json.loads(out)["observations"] == 6  # flag wins over file
        assert load_snapshot(snap).cfg.embedding_dim == 48  # file wins over default

    def test_config_via_environment(self, tmp_path, toy_log, capsys, monkeypatch):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"subsample_period": 5.0}))
        monkeypatch.setenv("LGR_CONFIG", str(cfg_file))
        snap = tmp_path / "s.lgrsnap"
        code, out, _ = run(capsys, "ingest", toy_log, "--out", snap)
        assert code == 0
        assert json.loads(out)["observations"] == 3  # t = 0, 5, 10

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "ingest", tmp_path / "nope.jsonl", "--out", tmp_path / "s")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"default_k": 2.5}, "default_k must be an integer, got 2.5"),
            ({"delta_p": "x"}, "delta_p must be a number, got 'x'"),
            ({"embedding_dim": 64.0}, "embedding_dim must be an integer, got 64.0"),
            ([1, 2], "config must be a JSON object, got list"),
        ],
    )
    def test_mistyped_config_fails_cleanly(self, tmp_path, toy_log, capsys, doc, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        snap = tmp_path / "s.lgrsnap"
        code, out, err = run(capsys, "ingest", toy_log, "--out", snap, "--config", cfg_file)
        assert (code, err) == (1, f"error: {message}\n")
        assert "Traceback" not in out + err
        assert sorted(tmp_path.iterdir()) == sorted([cfg_file, toy_log])  # no snapshot

    def test_huge_embedding_dim_fails_cleanly(self, tmp_path, toy_log, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"embedding_dim": 10**400}))
        snap = tmp_path / "s.lgrsnap"
        code, out, err = run(capsys, "ingest", toy_log, "--out", snap, "--config", cfg_file)
        assert (code, err) == (1, "error: embedding_dim must be <= 65536\n")
        assert "Traceback" not in out + err
        assert sorted(tmp_path.iterdir()) == sorted([cfg_file, toy_log])  # no snapshot


@settings(max_examples=80, deadline=None)
@given(
    how=st.sampled_from(CONFIG_MUTATIONS),
    field=st.sampled_from(tuple(CONFIG_DOC)),
    value=JSON_VALUES,
    special=SPECIALS,
    flag=st.booleans(),
)
def test_mutated_config_file_is_read_as_the_strict_reader_reads_it(how, field, value, special,
                                                                   flag):
    """``lgr ingest --config`` with a mutated config file ingests with the
    config the strict reader reads, or exits 1 with ``error:``, no
    traceback and no snapshot."""
    doc = mutated_config(how, field, value, special, flag)
    want = config_or_refusal(oracles.read_config_strict, doc)
    with tempfile.TemporaryDirectory() as tmp:
        log, cfg_file, snap = write_toy_log(Path(tmp)), Path(tmp) / "cfg.json", Path(tmp) / "s"
        cfg_file.write_text(json.dumps(doc))
        code, out, err = run_quietly("ingest", log, "--out", snap, "--config", cfg_file)
        if want is None:
            assert code == 1 and err.startswith("error:"), (code, err)
            assert "Traceback" not in out + err and not snap.exists()
        else:
            assert code == 0, err
            assert load_snapshot(snap).cfg.to_dict() == want


@pytest.fixture
def snapshot(tmp_path, toy_log, capsys):
    snap = tmp_path / "s.lgrsnap"
    assert main(["ingest", str(toy_log), "--out", str(snap)]) == 0
    capsys.readouterr()
    return snap


class TestQuery:
    def test_semantic(self, snapshot, capsys):
        code, out, _ = run(capsys, "query", snapshot, "semantic", "--query", "hydrant", "--k", "2")
        assert code == 0
        hits = json.loads(out)
        assert hits and hits[0]["score"] == pytest.approx(1.0, abs=1e-6)

    def test_position_order(self, snapshot, capsys):
        code, out, _ = run(capsys, "query", snapshot, "position", "--x", "0", "--y", "0", "--k", "3")
        assert code == 0
        hits = json.loads(out)
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores)

    def test_time(self, snapshot, capsys):
        code, out, _ = run(
            capsys, "query", snapshot, "time", "--hh", "0", "--mm", "0", "--ss", "4", "--k", "1"
        )
        assert code == 0
        assert json.loads(out)

    def test_caption_tools(self, snapshot, capsys):
        for argv in (
            ["query", snapshot, "captions-text", "--query", "path"],
            ["query", snapshot, "captions-position", "--x", "1", "--y", "0"],
            ["query", snapshot, "captions-time", "--t", "4.0"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)

    def test_route_answers_and_updates_stats(self, snapshot, capsys):
        code, out, _ = run(
            capsys, "query", snapshot, "route", "--query", "where is the hydrant",
            "--update-snapshot",
        )
        assert code == 0
        answer = json.loads(out)
        assert answer["pose"] is not None
        assert not answer["gave_up"]
        code, out, _ = run(capsys, "stats", snapshot)
        assert code == 0
        stats = json.loads(out)
        assert stats["n_queries"] == 1
        assert stats["fallback"] == 0.0

    def test_unknown_tool_exits_2(self, snapshot, capsys):
        code, _, err = run(capsys, "query", snapshot, "frobnicate")
        assert code == 2
        assert "unknown tool" in err

    def test_missing_required_flag(self, snapshot, capsys):
        code, _, err = run(capsys, "query", snapshot, "semantic")
        assert code == 1
        assert "--query" in err

    def test_malformed_snapshot_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.lgrsnap"
        bad.write_bytes(b"[1, 2]\n{}")
        for argv in (["query", bad, "semantic", "--query", "x"], ["stats", bad]):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert err.startswith("error:")

    def test_bad_block_size(self, snapshot, capsys):
        from test_snapshot import split_v2, write_v2

        header, meta, blocks = split_v2(snapshot)
        write_v2(snapshot, header, meta, blocks[:-4])
        code, _, err = run(capsys, "query", snapshot, "semantic", "--query", "x")
        assert code == 1
        assert err.startswith("error:") and "embedding blocks" in err

    def test_missing_snapshot(self, tmp_path, capsys):
        code, _, err = run(capsys, "query", tmp_path / "none", "semantic", "--query", "x")
        assert code == 1
        assert "error:" in err


class TestEvalAndStats:
    def test_eval_json_report(self, tmp_path, snapshot, capsys):
        qa = tmp_path / "qa.jsonl"
        save_qa_items(
            [
                QAItem("where is the hydrant?", "spatial", gt_pose=Pose(5.0, 0.0)),
                QAItem("when did you last see the hydrant?", "temporal", gt_time=10.0),
            ],
            qa,
        )
        code, out, _ = run(capsys, "eval", snapshot, qa)
        assert code == 0
        report = json.loads(out)
        assert report["positional_accuracy"] == 1.0
        assert report["temporal_accuracy"] == 1.0
        assert len(report["rows"]) == 2

    def test_eval_refuses_a_non_object_qa_line(self, tmp_path, snapshot, capsys):
        qa = tmp_path / "qa.jsonl"
        qa.write_text("[1, 2]\n")
        code, out, err = run(capsys, "eval", snapshot, qa)
        assert code == 1
        assert err.startswith(f"error: {qa}:1: bad QA item")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "line",
        [
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": 1%s, "y": 1.0}}' % ("0" * 400),
            '{"question": "q", "kind": "temporal", "gt_time": 1%s}' % ("0" * 400),
        ],
        ids=["pose-x", "time"],
    )
    def test_eval_refuses_a_number_too_large_for_a_float(self, tmp_path, snapshot, capsys, line):
        # was a traceback from an OverflowError
        qa = tmp_path / "qa.jsonl"
        qa.write_text(line + "\n")
        code, out, err = run(capsys, "eval", snapshot, qa)
        assert code == 1
        assert err.startswith(f"error: {qa}:1: bad QA item")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "line",
        [
            '{"question": "q", "kind": "spatial", "gt_pose": {"x": NaN, "y": 0}}',
            '{"question": "q", "kind": "temporal", "gt_time": -5}',
            '{"question": "q", "kind": "temporal", "gt_time": Infinity}',
        ],
        ids=["pose-x-nan", "time-negative", "time-inf"],
    )
    def test_eval_refuses_ground_truth_it_cannot_score(self, tmp_path, snapshot, capsys, line):
        # were an error naming no line, or an exit 0 printing Infinity
        qa = tmp_path / "qa.jsonl"
        qa.write_text(line + "\n")
        code, out, err = run(capsys, "eval", snapshot, qa)
        assert code == 1
        assert err.startswith(f"error: {qa}:1: bad QA item")
        assert "Traceback" not in out + err

    def test_eval_table_format(self, tmp_path, snapshot, capsys):
        qa = tmp_path / "qa.jsonl"
        save_qa_items([QAItem("where is the bench?", "spatial", gt_pose=Pose(5, 0))], qa)
        code, out, _ = run(capsys, "eval", snapshot, qa, "--format", "table")
        assert code == 0
        assert out.startswith("question\t")

    def test_stats_fresh_snapshot(self, snapshot, capsys):
        code, out, _ = run(capsys, "stats", snapshot)
        assert code == 0
        stats = json.loads(out)
        assert stats["caption_records"] == 6
        assert stats["n_queries"] == 0
        assert stats["fallback"] is None

    def test_stats_names_the_file_of_an_unknown_provider_kind(self, snapshot, capsys):
        from test_snapshot import rewrite_meta

        rewrite_meta(snapshot, lambda p: p["provider"].update(kind="martian"))
        code, out, err = run(capsys, "stats", snapshot)
        assert (code, err) == (1, f"error: {snapshot}: unknown provider kind: 'martian'\n")
        assert "Traceback" not in out + err

    def test_stats_reports_format_version(self, tmp_path, snapshot, capsys):
        from test_snapshot import write_v1

        old = tmp_path / "old.lgrsnap"
        write_v1(load_snapshot(snapshot), old)
        for snap, version in ((snapshot, "2.2"), (old, "1.0")):
            code, out, err = run(capsys, "stats", snap)
            assert code == 0, err
            assert json.loads(out)["format_version"] == version
        # any save converts the file, here a routed query's stats update
        code, _, err = run(capsys, "query", old, "route", "--query", "where is the hydrant?",
                           "--update-snapshot")
        assert code == 0, err
        assert json.loads(run(capsys, "stats", old)[1])["format_version"] == "2.2"


class TestProviderFlag:
    def test_fixture_provider(self, tmp_path, toy_log, capsys):
        from lgr import save_fixture_table
        from conftest import unit_rows

        table_path = tmp_path / "table.tsv"
        vecs = unit_rows(2, 384, seed=1)
        save_fixture_table({"hydrant": vecs[0], "bench": vecs[1]}, table_path)
        snap = tmp_path / "s.lgrsnap"
        code, _, err = run(
            capsys, "ingest", toy_log, "--out", snap,
            "--provider", f"fixture:{table_path}",
        )
        assert code == 0, err
        state = load_snapshot(snap)
        node = state.graph.get_node(1)
        assert np.allclose(node.embedding, vecs[0], atol=1e-6)

    def test_unknown_provider_spec(self, tmp_path, toy_log, capsys):
        code, _, err = run(
            capsys, "ingest", toy_log, "--out", tmp_path / "s", "--provider", "magic"
        )
        assert code == 1
        assert "unknown provider" in err


class TestOptionSets:
    """Each subcommand takes only the options it reads; argparse refuses the rest."""

    EXPECTED = {
        "ingest": ["--out", "--config", "--delta-p", "--delta-e", "--period", "--k",
                   "--seed", "--provider"],
        "query": ["--query", "--x", "--y", "--z", "--hh", "--mm", "--ss", "--t",
                  "--update-snapshot", "--k", "--seed", "--provider"],
        "eval": ["--format", "--update-snapshot", "--k"],
        "stats": [],
    }

    def test_option_strings_per_subcommand(self):
        actions = build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert options == self.EXPECTED

    def test_unread_options_are_refused(self, tmp_path, snapshot, capsys):
        qa = tmp_path / "qa.jsonl"
        save_qa_items([QAItem("where is the bench?", "spatial", gt_pose=Pose(5, 0))], qa)
        for argv in (
            ["stats", snapshot, "--delta-p", "3"],
            ["eval", snapshot, qa, "--provider", "hash"],
            ["query", snapshot, "semantic", "--query", "x", "--config", "c.json"],
            ["eval", snapshot, qa, "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([str(a) for a in argv])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestQueryRefusals:
    """``lgr query`` refuses option combinations it would not act on."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["semantic", "--query", "x", "--update-snapshot"], "--update-snapshot is read only"),
            (["captions-time", "--t", "1", "--update-snapshot"], "--update-snapshot is read only"),
            (["semantic", "--query", "hydrant", "--seed", "99"], "--seed is read only"),
            (["route", "--query", "where is the hydrant", "--seed", "0"], "--seed is read only"),
        ],
    )
    def test_exit_2_and_leave_the_snapshot(self, snapshot, capsys, argv, message):
        before = snapshot.read_bytes()
        code, out, err = run(capsys, "query", snapshot, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err
        assert snapshot.read_bytes() == before

    def test_seed_with_provider_and_update_with_route_still_act(self, snapshot, capsys):
        code, out, err = run(capsys, "query", snapshot, "semantic", "--query", "hydrant",
                             "--provider", "hash", "--seed", "99")
        assert code == 0, err
        code, _, err = run(capsys, "query", snapshot, "route", "--query", "where is the hydrant",
                           "--update-snapshot")
        assert code == 0, err
        assert json.loads(run(capsys, "stats", snapshot)[1])["n_queries"] == 1


def test_stats_reports_rows_and_distinct_vectors(tmp_path, capsys):
    # a robot passing the same hydrant and bench every 100 m, under one of
    # two captions: the hash provider gives a text the same vector each time
    records = [
        LogRecord(frame_id=f"f{i}", t=2.0 * i, pose=Pose(x=100.0 * i, y=0.0, z=0.0, yaw=0.0),
                  labels=("hydrant", "bench"), caption=f"a brick path, side {i % 2}")
        for i in range(5)
    ]
    log, snap = tmp_path / "walk.jsonl", tmp_path / "s.lgrsnap"
    write_log(records, log)
    code, _, err = run(capsys, "ingest", log, "--out", snap)
    assert code == 0, err
    stats = json.loads(run(capsys, "stats", snap)[1])
    assert (stats["nodes"], stats["node_vectors"]) == (10, 2)
    assert (stats["caption_records"], stats["caption_vectors"]) == (5, 2)


class TestSerializedShapes:
    """The JSON of every value type the CLI prints or writes, pinned key by
    key against literals (compared after a JSON round trip, where tuples
    and lists are the same array)."""

    POSE = Pose(1.0, 2.0, 0.5, 0.25)
    POSE_JSON = {"x": 1.0, "y": 2.0, "z": 0.5, "yaw": 0.25}

    @staticmethod
    def as_json(d: dict) -> dict:
        return json.loads(json.dumps(d, sort_keys=True))

    def test_config(self):
        assert self.as_json(Config().to_dict()) == {
            "delta_p": 5.0,
            "delta_e": 0.75,
            "subsample_period": 2.0,
            "default_k": 5,
            "max_planner_iterations": 8,
            "embedding_dim": 384,
        }

    def test_hits(self):
        hit = RetrievalHit(node_id=3, label_text="bench", pose=self.POSE, last_seen=7.5, score=0.875)
        assert self.as_json(hit.to_dict()) == {
            "node_id": 3, "label_text": "bench", "pose": self.POSE_JSON,
            "last_seen": 7.5, "score": 0.875,
        }
        hit = CaptionHit(record_id=4, text="a bench", pose=self.POSE, time=9.0, score=2.5)
        assert self.as_json(hit.to_dict()) == {
            "record_id": 4, "text": "a bench", "pose": self.POSE_JSON,
            "time": 9.0, "score": 2.5,
        }

    def test_qa_items(self):
        spatial = QAItem("where is the bench?", "spatial", gt_pose=self.POSE)
        assert self.as_json(spatial.to_json_dict()) == {
            "question": "where is the bench?", "kind": "spatial",
            "gt_pose": self.POSE_JSON, "gt_time": None,
        }
        temporal = QAItem("when did you last see the bench?", "temporal", gt_time=12.0)
        assert self.as_json(temporal.to_json_dict()) == {
            "question": "when did you last see the bench?", "kind": "temporal",
            "gt_pose": None, "gt_time": 12.0,
        }

    def test_eval_report(self):
        rows = (
            EvalRow("where is the bench?", "spatial", True, True, 3.5, 0.25, False,
                    ("t_semantic",)),
            EvalRow("when did you last see the cat?", "temporal", False, False, None, 0.5,
                    True, ("t_semantic", "captions_text")),
            EvalRow("describe the hall", "descriptive", True, None, None, 0.125, False, ()),
        )
        report = EvalReport(1.0, 0.0, 3.5, None, 0.875 / 3, 0.5, rows)
        row = lambda q, kind, answered, correct, error, latency, gave_up, trace: {
            "question": q, "kind": kind, "answered": answered, "correct": correct,
            "error": error, "latency": latency, "gave_up": gave_up, "trace": trace,
        }
        assert self.as_json(report.to_dict()) == {
            "positional_accuracy": 1.0,
            "temporal_accuracy": 0.0,
            "mean_spatial_error": 3.5,
            "mean_temporal_error": None,
            "mean_latency": 0.875 / 3,
            "fallback": 0.5,
            "rows": [
                row("where is the bench?", "spatial", True, True, 3.5, 0.25, False,
                    ["t_semantic"]),
                row("when did you last see the cat?", "temporal", False, False, None, 0.5,
                    True, ["t_semantic", "captions_text"]),
                row("describe the hall", "descriptive", True, None, None, 0.125, False, []),
            ],
        }

    def router(self, planner, stocked=True):
        # axis-aligned fixture vectors make every cosine score exactly 0 or 1
        cfg = Config(embedding_dim=4)
        provider = FixtureProvider(
            {"bench": [1, 0, 0, 0], "zebra": [0, 1, 0, 0], "a zebra crossing": [0, 1, 0, 0]}
        )
        graph, captions = MemoryGraph(cfg), CaptionStore(cfg)
        if stocked:
            graph.ingest_observation(Observation(
                "f0", self.POSE, 7.5, labels=(Label("bench", provider.embed("bench")),)
            ))
            captions.insert_caption(Observation(
                "f1", Pose(3.0, 4.0), 9.0,
                caption=Caption("a zebra crossing", provider.embed("a zebra crossing")),
            ))
        return Router(graph, captions, provider, planner, cfg=cfg)

    def answer_json(self, router, query) -> dict:
        d = self.as_json(router.answer_query(query).to_dict())
        assert isinstance(d.pop("elapsed"), float)
        return d

    BENCH_HIT = {"node_id": 1, "label_text": "bench", "pose": POSE_JSON, "last_seen": 7.5}

    def test_answer_from_the_graph(self):
        router = self.router(RuleBasedPlanner(k=1))
        assert self.answer_json(router, "where is the bench?") == {
            "text": "'bench' is at (1.00, 2.00, 0.50)",
            "pose": self.POSE_JSON,
            "time": 7.5,
            "gave_up": False,
            "truncated": False,
            "trace": [
                {"tool": "t_semantic", "args": {"query": "bench", "k": 1}, "error": None,
                 "hits": [{**self.BENCH_HIT, "score": 1.0}]},
            ],
        }

    def test_answer_from_the_caption_fallback(self):
        router = self.router(RuleBasedPlanner(k=1))
        args = {"query": "zebra", "k": 1}
        assert self.answer_json(router, "where is the zebra?") == {
            "text": "recalled scene: a zebra crossing",
            "pose": {"x": 3.0, "y": 4.0, "z": 0.0, "yaw": 0.0},
            "time": 9.0,
            "gave_up": False,
            "truncated": False,
            "trace": [
                {"tool": "t_semantic", "args": args, "error": None,
                 "hits": [{**self.BENCH_HIT, "score": 0.0}]},
                {"tool": "captions_text", "args": args, "error": None,
                 "hits": [{"record_id": 1, "text": "a zebra crossing",
                           "pose": {"x": 3.0, "y": 4.0, "z": 0.0, "yaw": 0.0},
                           "time": 9.0, "score": 1.0}]},
            ],
        }

    def test_give_up(self):
        router = self.router(RuleBasedPlanner(k=2), stocked=False)
        args = {"query": "bench", "k": 2}
        assert self.answer_json(router, "where is the bench?") == {
            "text": "no relevant memory found",
            "pose": None,
            "time": None,
            "gave_up": True,
            "truncated": False,
            "trace": [
                {"tool": "t_semantic", "args": args, "error": None, "hits": []},
                {"tool": "captions_text", "args": args, "error": None, "hits": []},
            ],
        }

    def test_failed_steps(self):
        script = [
            CallTool("nope", {"v": 1}),
            CallTool("t_time", {"hh": 0, "mm": 61, "ss": 0, "k": 1}),
            GiveUpAction("out of ideas"),
        ]
        router = self.router(ScriptedPlanner({"q": script}))
        assert self.answer_json(router, "q") == {
            "text": "out of ideas",
            "pose": None,
            "time": None,
            "gave_up": True,
            "truncated": False,
            "trace": [
                {"tool": "nope", "args": {"v": 1}, "error": "unknown tool: nope", "hits": None},
                {"tool": "t_time", "args": {"hh": 0, "mm": 61, "ss": 0, "k": 1},
                 "error": "malformed time components: 0:61:0", "hits": None},
            ],
        }
