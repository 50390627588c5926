"""The tool table: one declaration behind the router, `lgr query` and the
public tool functions."""

from __future__ import annotations

import json

import pytest

from lgr import (
    CallTool,
    GiveUpAction,
    LogRecord,
    Pose,
    Router,
    load_snapshot,
    t_position,
    t_semantic,
    t_time,
    write_log,
)
from lgr.cli import main
from lgr.tools import TOOLS
from worlds import ScriptedPlanner

ARGS = {
    "t_semantic": {"query": "hydrant", "k": 4},
    "t_position": {"x": 3.0, "y": 1.0, "z": 0.5, "k": 4},
    "t_time": {"hh": 0, "mm": 0, "ss": 14, "k": 3},
    "captions_text": {"query": "a path at t=4.0", "k": 3},
    "captions_position": {"x": 10.0, "y": 0.0, "z": -1.0, "k": 3},
    "captions_time": {"t": 7.3, "k": 2},
}

DIRECT = {
    "t_semantic": lambda s, a: t_semantic(s.graph, s.provider, a["query"], a["k"]),
    "t_position": lambda s, a: t_position(s.graph, a["x"], a["y"], a["z"], a["k"]),
    "t_time": lambda s, a: t_time(s.graph, a["hh"], a["mm"], a["ss"], a["k"]),
    "captions_text": lambda s, a: s.captions.query_text(s.provider.embed(a["query"]), a["k"]),
    "captions_position": lambda s, a: s.captions.query_position(
        Pose(a["x"], a["y"], a["z"]), a["k"]
    ),
    "captions_time": lambda s, a: s.captions.query_time(a["t"], a["k"]),
}

# Router.tool_schemas() as it stood before the table existed
SCHEMAS = [
    {
        "name": "t_semantic",
        "description": "top-k graph nodes by semantic similarity to a text query",
        "params": [{"name": "query", "type": "string"}, {"name": "k", "type": "integer"}],
        "vector_store": False,
    },
    {
        "name": "t_position",
        "description": "top-k graph nodes nearest to a position (meters)",
        "params": [
            {"name": "x", "type": "number"},
            {"name": "y", "type": "number"},
            {"name": "z", "type": "number"},
            {"name": "k", "type": "integer"},
        ],
        "vector_store": False,
    },
    {
        "name": "t_time",
        "description": "top-k graph nodes last seen closest to hh:mm:ss",
        "params": [
            {"name": "hh", "type": "integer"},
            {"name": "mm", "type": "integer"},
            {"name": "ss", "type": "integer"},
            {"name": "k", "type": "integer"},
        ],
        "vector_store": False,
    },
    {
        "name": "captions_text",
        "description": "top-k scene captions by semantic similarity to a text query",
        "params": [{"name": "query", "type": "string"}, {"name": "k", "type": "integer"}],
        "vector_store": True,
    },
    {
        "name": "captions_position",
        "description": "top-k scene captions recorded nearest to a position",
        "params": [
            {"name": "x", "type": "number"},
            {"name": "y", "type": "number"},
            {"name": "z", "type": "number"},
            {"name": "k", "type": "integer"},
        ],
        "vector_store": True,
    },
    {
        "name": "captions_time",
        "description": "top-k scene captions recorded closest to a session time (seconds)",
        "params": [{"name": "t", "type": "number"}, {"name": "k", "type": "integer"}],
        "vector_store": True,
    },
]


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A 30 s walk at 10 Hz past a hydrant, a bench and five boxes."""
    tmp = tmp_path_factory.mktemp("table")
    records = [
        LogRecord(
            frame_id=f"f{i:04d}",
            t=i / 10,
            pose=Pose(i / 10, 0.3 * (i % 7), 0.0, 0.0),
            labels=("hydrant",) if i % 2 == 0 else ("hydrant", "bench", f"box{i % 5}"),
            caption=f"a path at t={i / 10:.1f}",
        )
        for i in range(301)
    ]
    write_log(records, tmp / "log.jsonl")
    snap = tmp / "s.lgrsnap"
    assert main(["ingest", str(tmp / "log.jsonl"), "--out", str(snap), "--period", "0.5"]) == 0
    return snap


def scored_ids(hits) -> list[tuple[int, float]]:
    dicts = [h if isinstance(h, dict) else h.to_dict() for h in hits]
    return [(d.get("node_id", d.get("record_id")), d["score"]) for d in dicts]


def test_every_tool_has_probe_args():
    assert list(ARGS) == [t.name for t in TOOLS]
    for t in TOOLS:
        assert [n for n, _ in t.params] == list(ARGS[t.name])
        assert t.params[-1] == ("k", "integer")


@pytest.mark.parametrize("tool", TOOLS, ids=lambda t: t.name)
def test_router_cli_and_direct_call_agree(tool, snapshot, capsys):
    capsys.readouterr()
    args = ARGS[tool.name]
    state = load_snapshot(snapshot)
    direct = scored_ids(DIRECT[tool.name](state, args))
    assert direct

    planner = ScriptedPlanner({"q": [CallTool(tool.name, args), GiveUpAction("done")]})
    router = Router(state.graph, state.captions, state.provider, planner, cfg=state.cfg)
    (result,) = router.answer_query("q").trace
    assert result.ok and result.vector == tool.vector
    assert scored_ids(result.hits) == direct

    argv = ["query", str(snapshot), tool.cli_name]
    for name, value in args.items():
        argv += [f"--{name}", str(value)]
    assert main(argv) == 0
    assert scored_ids(json.loads(capsys.readouterr().out)) == direct


def test_tool_schemas_unchanged(snapshot):
    state = load_snapshot(snapshot)
    router = Router(
        state.graph, state.captions, state.provider, ScriptedPlanner({}), cfg=state.cfg
    )
    assert router.tool_schemas() == SCHEMAS


def test_cli_names():
    assert [t.cli_name for t in TOOLS] == [
        "semantic",
        "position",
        "time",
        "captions-text",
        "captions-position",
        "captions-time",
    ]


NUMBER_PARAMS = [(t, n) for t in TOOLS for n, typ in t.params if typ == "number"]


def test_number_params_listed():
    assert [(t.name, n) for t, n in NUMBER_PARAMS] == [
        ("t_position", "x"),
        ("t_position", "y"),
        ("t_position", "z"),
        ("captions_position", "x"),
        ("captions_position", "y"),
        ("captions_position", "z"),
        ("captions_time", "t"),
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize(
    "tool, name", NUMBER_PARAMS, ids=[f"{t.name}.{n}" for t, n in NUMBER_PARAMS]
)
def test_number_params_refuse_non_finite(tool, name, bad, snapshot, capsys):
    state = load_snapshot(snapshot)
    args = {**ARGS[tool.name], name: bad}
    with pytest.raises(ValueError, match="must be finite"):
        DIRECT[tool.name](state, args)
    with pytest.raises(ValueError, match="must be finite"):
        tool.run(state.graph, state.captions, state.provider, **args)

    planner = ScriptedPlanner({"q": [CallTool(tool.name, args), GiveUpAction("done")]})
    router = Router(state.graph, state.captions, state.provider, planner, cfg=state.cfg)
    (result,) = router.answer_query("q").trace
    assert not result.ok and result.hits is None
    assert "must be finite" in result.error

    argv = ["query", str(snapshot), tool.cli_name, *(f"--{n}={v}" for n, v in args.items())]
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "must be finite" in out.err
