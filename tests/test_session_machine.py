"""A whole session as a state machine: ingest, the six tools, save and
load, and restore, interleaved, on stores whose appended vectors span
several small chunks and repeat (so rows share them), with each row's
``uid`` checked as a load checks a file's.

Every tool is called through ``TOOLS`` and checked against the full-scan
``rank_*`` oracles over the items the stores return, and the ingest gate
against ``find_matches_naive``, with label vectors exactly at and one
step either side of the ``delta_e`` edge (``EDGE``). Routed "where is" questions are checked
against the answer those oracles pick, and against the session counters.
The caption store is append-only, so a plain list models it exactly; the
graph is checked by its invariants and by surviving each save/load and
restore unchanged.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import oracles
from lgr import (
    Caption,
    CaptionStore,
    Config,
    HashProvider,
    Label,
    MemoryGraph,
    Observation,
    Pose,
    Router,
    RuleBasedPlanner,
    SessionState,
    load_snapshot,
    save_snapshot,
)
from lgr import columns
from lgr.router import RELEVANCE_FLOOR
from lgr.tools import TOOLS

DIM = 8
LABELS = ("cup", "door", "bench", "lamp")
# label vectors at the delta_e (0.75) edge of "mug": every product and sum
# of their scores is exact in float64, so "rim" and its -0.0 twin score
# exactly 0.75 against "mug" (no match), "handle" one step above it and
# "base" one step below
_S = 2.0**-20
EDGE = {
    "mug": (0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0),
    "rim": (0.5, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0),
    "rim twin": (0.5, 0.5, 0.5, -0.0, 0.5, 0.0, 0.0, 0.0),
    "handle": (0.5, 0.5, 0.5, _S, 0.5, 0.0, 0.0, 0.0),
    "base": (0.5, 0.5, 0.5, -_S, 0.5, 0.0, 0.0, 0.0),
}
CAPTIONS = ("a hall", "a kitchen", "a door by a lamp")
# a 3-4-5 grid: many sightings lie exactly delta_p (5 m) apart
XS, YS = (0.0, 3.0, 6.0, 12.0), (0.0, 4.0)
YAWS = (0.0, 1.0, -3.0)


def values(items) -> list[dict]:
    """Each item's fields, its embedding as bytes."""
    return [vars(it) | {"embedding": it.embedding.tobytes()} for it in items]


def stored_vector(store, row: int) -> np.ndarray:
    cols = store._cols
    return cols._vector(int(cols.uid[row]))


def check_store(store, ingest_only: bool = False) -> None:
    """A store's invariants: ids ascend below ``next_id``, ``norm_bound``
    covers every stored vector, each item's embedding is a read-only copy
    of its row's stored vector, and the ``uid`` column uses each stored
    vector and no other. A store built by ingest alone (``ingest_only``)
    holds each distinct vector once; no hash collides among the few
    vectors of the sessions checked here."""
    items = store._all()
    ids = [getattr(it, store._ID) for it in items]
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert store.next_id > max(ids, default=0)
    assert store.vector_count() <= len(store) == len(items)
    cols = store._cols
    for block in cols.blocks():
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        assert not norms.size or norms.max() <= cols.norm_bound
    for row, it in enumerate(items):
        assert not it.embedding.flags.writeable
        assert it.embedding.tobytes() == stored_vector(store, row).tobytes()
    # the check a load makes on a file's uid column, made on the live store
    m = store.vector_count()
    assert np.array_equal(np.unique(cols.uid[: len(items)]), np.arange(m))
    distinct = len({it.embedding.tobytes() for it in items})
    assert distinct == m if ingest_only else distinct <= m


class Session(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._chunk = mock.patch.object(columns, "_CHUNK", 4)
        self._chunk.start()
        self._dir = tempfile.TemporaryDirectory()
        self.cfg = Config(embedding_dim=DIM)
        self.provider = HashProvider(seed=5, dim=DIM)
        self.state = SessionState.new(self.cfg, self.provider)
        self.t = 0.0
        self.frames = 0
        self.captions: list[tuple] = []  # (id, text, pose, time, vector bytes)
        self.sightings: dict[int, list] = {}  # node id: (x, y, z, time, yaw) of each
        self.ingest_only = True  # no load or restore yet: every stored vector was hashed

    def teardown(self):
        self._chunk.stop()
        self._dir.cleanup()

    def label_vector(self, text: str) -> np.ndarray:
        if text in EDGE:
            return np.array(EDGE[text], np.float32)
        return self.provider.embed(text)

    @rule(
        labels=st.lists(st.sampled_from(LABELS + tuple(EDGE)), max_size=3),
        caption=st.none() | st.sampled_from(CAPTIONS),
        x=st.sampled_from(XS),
        y=st.sampled_from(YS),
        yaw=st.sampled_from(YAWS),
        dt=st.sampled_from((0.0, 0.5, 7.0)),
    )
    def ingest(self, labels, caption, x, y, yaw, dt):
        self.t += dt
        pose = Pose(x, y, 0.0, yaw)
        obs = Observation(
            frame_id=f"f{self.frames}",
            pose=pose,
            time=self.t,
            labels=tuple(Label(text, self.label_vector(text)) for text in labels),
            caption=None if caption is None else Caption(caption, self.provider.embed(caption)),
        )
        self.frames += 1
        graph = self.state.graph
        nodes = [(n.node_id, n.embedding, (n.pose.x, n.pose.y, n.pose.z)) for n in graph.all_nodes()]
        cfg, matched = self.cfg, set()
        for label in obs.labels:  # both gates against a full scan, before the frame
            want = oracles.find_matches_naive(
                nodes, label.embedding, (x, y, 0.0), cfg.delta_e, cfg.delta_p
            )
            assert graph.find_matches(label.embedding, pose) == want
            matched.update(want)
        counts = sum(n.obs_count for n in graph.all_nodes())
        before = graph.next_id
        report = self.state.ingest(obs)
        assert report.created == tuple(range(before, graph.next_id))
        assert set(report.updated) <= matched
        for nid in report.created:
            self.sightings[nid] = []
        for nid in report.created + report.updated:
            self.sightings[nid].append((x, y, 0.0, self.t, yaw))
        # each label either creates a node or adds one sighting to one
        assert sum(n.obs_count for n in graph.all_nodes()) == counts + len(labels)
        if caption is not None:
            rid = self.state.captions.next_id - 1
            vector = self.provider.embed(caption).astype(np.float32).tobytes()
            self.captions.append((rid, caption, pose, self.t, vector))

    @rule(
        k=st.integers(1, 6),
        text=st.sampled_from(LABELS + CAPTIONS + ("absent",)),
        x=st.sampled_from(XS),
        y=st.sampled_from(YS),
        t=st.sampled_from((0.0, 7.0, 14.5, 60.0)),
    )
    def tools(self, k, text, x, y, t):
        nodes = self.state.graph.all_nodes()
        records = self.state.captions.all_records()
        q = self.provider.embed(text)
        ss = int(t)
        args = {
            "t_semantic": {"query": text, "k": k},
            "t_position": {"x": x, "y": y, "z": 0.0, "k": k},
            "t_time": {"hh": ss // 3600, "mm": ss % 3600 // 60, "ss": ss % 60, "k": k},
            "captions_text": {"query": text, "k": k},
            "captions_position": {"x": x, "y": y, "z": 0.0, "k": k},
            "captions_time": {"t": t, "k": k},
        }
        node_pos = [(n.node_id, (n.pose.x, n.pose.y, n.pose.z)) for n in nodes]
        record_pos = [(r.record_id, (r.pose.x, r.pose.y, r.pose.z)) for r in records]
        want = {
            "t_semantic": oracles.rank_semantic([(n.node_id, n.embedding) for n in nodes], q, k),
            "t_position": oracles.rank_position(node_pos, (x, y, 0.0), k),
            "t_time": oracles.rank_time([(n.node_id, n.last_seen) for n in nodes], float(ss), k),
            "captions_text": oracles.rank_semantic(
                [(r.record_id, r.embedding) for r in records], q, k
            ),
            "captions_position": oracles.rank_position(record_pos, (x, y, 0.0), k),
            "captions_time": oracles.rank_time([(r.record_id, r.time) for r in records], t, k),
        }
        for tool in TOOLS:
            hits = tool.run(self.state.graph, self.state.captions, self.provider, **args[tool.name])
            got = [(h.record_id if tool.vector else h.node_id, h.score) for h in hits]
            oracles.assert_ranking(got, want[tool.name])

    @rule(label=st.sampled_from(LABELS))
    def route(self, label):
        # the labels hold no digit and no stopword, so the subject is the label
        state = self.state
        q = self.provider.embed(label)
        nodes = {n.node_id: n for n in state.graph.all_nodes()}
        records = {r.record_id: r for r in state.captions.all_records()}
        top_node = oracles.rank_semantic([(i, n.embedding) for i, n in nodes.items()], q, 1)
        top_caption = oracles.rank_semantic([(i, r.embedding) for i, r in records.items()], q, 1)
        stats = state.stats
        queries, vector_calls = stats.n_queries, stats.n_vector_calls
        router = Router(state.graph, state.captions, self.provider, RuleBasedPlanner(), stats=stats)
        answer = router.answer_query(f"where is the {label}?")
        fell_back = not top_node or top_node[0][1] < RELEVANCE_FLOOR
        got = (answer.pose, answer.time, answer.gave_up)
        if not fell_back:
            node = nodes[top_node[0][0]]
            assert got == (node.pose, node.last_seen, False)
        elif top_caption:
            record = records[top_caption[0][0]]
            assert got == (record.pose, record.time, False)
        else:
            assert got == (None, None, True)
        steps = [(r.tool, r.args) for r in answer.trace]
        args = {"query": label, "k": 5}
        assert steps == [("t_semantic", args)] + [("captions_text", args)] * fell_back
        assert (stats.n_queries, stats.n_vector_calls) == (queries + 1, vector_calls + fell_back)

    @rule()
    def save_and_load(self):
        path = Path(self._dir.name) / "s.lgrsnap"
        save_snapshot(self.state, path)
        loaded = load_snapshot(path)
        for before, after in (
            (self.state.graph, loaded.graph),
            (self.state.captions, loaded.captions),
        ):
            assert values(after._all()) == values(before._all())
            assert after.next_id == before.next_id
            assert after.vector_count() <= before.vector_count()
        self.state = loaded
        self.ingest_only = False

    @rule()
    def restore(self):
        graph, captions = self.state.graph, self.state.captions
        self.state.graph = MemoryGraph.restore(self.cfg, graph.all_nodes(), graph.next_id)
        self.state.captions = CaptionStore.restore(
            self.cfg, captions.all_records(), captions.next_id
        )
        assert values(self.state.graph.all_nodes()) == values(graph.all_nodes())
        assert values(self.state.captions.all_records()) == values(captions.all_records())
        self.ingest_only = False

    @invariant()
    def captions_match_the_model(self):
        got = [
            (r.record_id, r.text, r.pose, r.time, r.embedding.tobytes())
            for r in self.state.captions.all_records()
        ]
        assert got == self.captions

    @invariant()
    def nodes_match_their_sightings(self):
        # position is the mean of every sighting; count, times and yaw follow them
        for n in self.state.graph.all_nodes():
            seen = self.sightings[n.node_id]
            assert n.obs_count == len(seen)
            assert (n.first_seen, n.last_seen, n.pose.yaw) == (seen[0][3], seen[-1][3], seen[0][4])
            for axis, got in enumerate((n.pose.x, n.pose.y, n.pose.z)):
                want = sum(s[axis] for s in seen) / len(seen)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (got, want)

    @invariant()
    def stores_are_consistent(self):
        for store in (self.state.graph, self.state.captions):
            check_store(store, self.ingest_only)


Session.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestSession = Session.TestCase
