"""The shared column store: exact top-k, bulk restore and growth."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DIM, random_graph, unit_rows
from lgr import (
    Caption,
    CaptionRecord,
    CaptionStore,
    EntityNode,
    FixtureProvider,
    HashProvider,
    Label,
    MemoryGraph,
    Observation,
    Pose,
    t_position,
    t_semantic,
    t_time,
)
from lgr.columns import _GROW, topk

# ----------------------------------------------------------------------
# topk against a full lexsort
# ----------------------------------------------------------------------


def _ids_and_k(data, n):
    """Distinct ids in shuffled row order, so the id tie-break is not row order."""
    ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64) * 7 + 3
    return ids, data.draw(st.integers(1, n + 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=60), st.booleans(), st.data())
def test_topk_equals_full_lexsort_under_dense_ties(values, descending, data):
    key = np.array(values, dtype=np.float64)
    if descending:
        key = -key
    ids, k = _ids_and_k(data, key.shape[0])
    assert topk(key, ids, k).tolist() == np.lexsort((ids, key))[:k].tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, math.nan]), max_size=40),
    st.data(),
)
def test_topk_equals_full_lexsort_with_nan_and_signed_zero(values, data):
    key = np.array(values, dtype=np.float64)
    ids, k = _ids_and_k(data, key.shape[0])
    assert topk(key, ids, k).tolist() == np.lexsort((ids, key))[:k].tolist()


def test_topk_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be"):
        topk(np.zeros(3), np.arange(3), 0)


# ----------------------------------------------------------------------
# all six tools on stores with forced ties, around the k boundary
# ----------------------------------------------------------------------

K = 5


def repeated_captions(n: int, cfg, seed: int) -> CaptionStore:
    """n records where every third one repeats an earlier record exactly."""
    rng = np.random.default_rng(seed)
    emb = unit_rows(n, cfg.embedding_dim, seed)
    pos = rng.uniform(-30.0, 30.0, size=(n, 3))
    times = rng.uniform(0.0, 600.0, size=n)
    records = []
    for i in range(n):
        j = i - 3 if i >= 3 and i % 3 == 0 else i
        records.append(
            CaptionRecord(i + 1, f"scene {j}", emb[j], Pose(*pos[j]), float(times[j]))
        )
    return CaptionStore.restore(cfg, records)


def check_graph_tools(g: MemoryGraph, k: int, rng) -> None:
    nodes = g.all_nodes()
    probe = nodes[int(rng.integers(len(nodes)))] if nodes else None
    provider = FixtureProvider(
        {"q": probe.embedding} if probe else {}, fallback=HashProvider(5, DIM)
    )
    for text in ("q", "something else"):
        want = oracles.rank_semantic(
            [(n.node_id, n.embedding) for n in nodes], provider.embed(text), k
        )
        got = t_semantic(g, provider, text, k)
        oracles.assert_ranking([(h.node_id, h.score) for h in got], want)
    xyz = (probe.pose.x, probe.pose.y, probe.pose.z) if probe else (0.0, 0.0, 0.0)
    want = oracles.rank_position(
        [(n.node_id, (n.pose.x, n.pose.y, n.pose.z)) for n in nodes], xyz, k
    )
    got = t_position(g, *xyz, k)
    oracles.assert_ranking([(h.node_id, h.score) for h in got], want)
    ss = int(probe.last_seen) if probe else 0
    want = oracles.rank_time([(n.node_id, n.last_seen) for n in nodes], float(ss), k)
    got = t_time(g, ss // 3600, ss % 3600 // 60, ss % 60, k)
    oracles.assert_ranking([(h.node_id, h.score) for h in got], want)


def check_caption_tools(store: CaptionStore, k: int, rng) -> None:
    records = store.all_records()
    probe = records[int(rng.integers(len(records)))] if records else None
    for q in ([probe.embedding] if probe else []) + [unit_rows(1, DIM, seed=99)[0]]:
        want = oracles.rank_semantic([(r.record_id, r.embedding) for r in records], q, k)
        got = store.query_text(q, k)
        oracles.assert_ranking([(h.record_id, h.score) for h in got], want)
    pose = probe.pose if probe else Pose(0.0, 0.0)
    want = oracles.rank_position(
        [(r.record_id, (r.pose.x, r.pose.y, r.pose.z)) for r in records],
        (pose.x, pose.y, pose.z),
        k,
    )
    got = store.query_position(pose, k)
    oracles.assert_ranking([(h.record_id, h.score) for h in got], want)
    t = probe.time if probe else 0.0
    want = oracles.rank_time([(r.record_id, r.time) for r in records], t, k)
    got = store.query_time(t, k)
    oracles.assert_ranking([(h.record_id, h.score) for h in got], want)


@pytest.mark.parametrize("n", [K - 1, K, K + 1, 12 * K])
def test_six_tools_match_oracles_with_forced_ties(cfg64, n):
    rng = np.random.default_rng(n)
    g = random_graph(n, cfg64, seed=30 + n, duplicate_every=3)
    captions = repeated_captions(n, cfg64, seed=40 + n)
    for k in (K, 1, n + 2):
        check_graph_tools(g, k, rng)
        check_caption_tools(captions, k, rng)


# ----------------------------------------------------------------------
# bulk restore and growth
# ----------------------------------------------------------------------


def test_shuffled_restore_equals_sorted_restore(cfg64):
    nodes = random_graph(40, cfg64, seed=8, duplicate_every=4).all_nodes()
    records = repeated_captions(40, cfg64, seed=9).all_records()
    order = np.random.default_rng(1).permutation(40)
    g_sorted = MemoryGraph.restore(cfg64, nodes)
    g_shuffled = MemoryGraph.restore(cfg64, [nodes[i] for i in order])
    c_sorted = CaptionStore.restore(cfg64, records)
    c_shuffled = CaptionStore.restore(cfg64, [records[i] for i in order])
    assert g_shuffled.all_nodes() == g_sorted.all_nodes()
    assert c_shuffled.all_records() == c_sorted.all_records()
    assert (g_shuffled.next_id, c_shuffled.next_id) == (41, 41)
    q = unit_rows(1, DIM, seed=2)[0]
    for k in (1, 7, 40):
        assert g_shuffled.top_semantic(q, k) == g_sorted.top_semantic(q, k)
        assert g_shuffled.top_position(np.zeros(3), k) == g_sorted.top_position(np.zeros(3), k)
        assert g_shuffled.top_time(900.0, k) == g_sorted.top_time(900.0, k)
        assert c_shuffled.query_text(q, k) == c_sorted.query_text(q, k)
        assert c_shuffled.query_position(Pose(1.0, 2.0), k) == c_sorted.query_position(
            Pose(1.0, 2.0), k
        )
        assert c_shuffled.query_time(300.0, k) == c_sorted.query_time(300.0, k)


def test_restore_rejects_duplicate_ids_and_wrong_dimension(cfg64):
    emb = unit_rows(2, DIM, seed=3)
    node = EntityNode(4, "a", emb[0], Pose(0.0, 0.0), 0.0, 0.0, 1)
    record = CaptionRecord(4, "a", emb[0], Pose(0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="duplicate node_id 4"):
        MemoryGraph.restore(cfg64, [node, EntityNode(1, "b", emb[1], Pose(1.0, 0.0), 0.0, 0.0, 1), node])
    with pytest.raises(ValueError, match="duplicate record_id 4"):
        CaptionStore.restore(cfg64, [record, record])
    short = np.ones(DIM - 1, dtype=np.float32)
    with pytest.raises(ValueError, match="dimension mismatch"):
        MemoryGraph.restore(cfg64, [node, EntityNode(9, "b", short, Pose(0.0, 0.0), 0.0, 0.0, 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        CaptionStore.restore(cfg64, [record, CaptionRecord(9, "b", short, Pose(0.0, 0.0), 0.0)])


def test_restore_rejects_non_float32_embedding(cfg64):
    # the stores hold float32 vectors, which snapshots write exactly
    wide = unit_rows(1, DIM, seed=3)[0].astype(np.float64)
    with pytest.raises(ValueError, match="node embeddings must be float32, got float64"):
        MemoryGraph.restore(cfg64, [EntityNode(1, "a", wide, Pose(0.0, 0.0), 0.0, 0.0, 1)])
    with pytest.raises(ValueError, match="caption record embeddings must be float32"):
        CaptionStore.restore(cfg64, [CaptionRecord(1, "a", wide, Pose(0.0, 0.0), 0.0)])


def test_ingest_stores_float32_embeddings(cfg64):
    f32 = unit_rows(2, DIM, seed=4)
    obs = Observation(
        frame_id="f",
        pose=Pose(0.0, 0.0),
        time=0.0,
        labels=(Label("a", f32[0]), Label("b", f32[1].astype(np.float64))),
        caption=Caption("c", f32[1].astype(np.float64)),
    )
    g, c = MemoryGraph(cfg64), CaptionStore(cfg64)
    g.ingest_observation(obs)
    c.insert_caption(obs)
    a, b = g.all_nodes()
    assert a.embedding is obs.labels[0].embedding  # float32 passes through
    assert b.embedding.dtype == np.float32 and np.array_equal(b.embedding, f32[1])
    (r,) = c.all_records()
    assert r.embedding.dtype == np.float32 and np.array_equal(r.embedding, f32[1])


def test_restore_then_ingest_past_headroom(cfg64):
    n = 10
    g = random_graph(n, cfg64, seed=12)
    captions = repeated_captions(n, cfg64, seed=13)
    provider = HashProvider(seed=14, dim=DIM)
    rng = np.random.default_rng(15)
    frames = n + _GROW + 20  # beyond the headroom restore allocated
    for i in range(frames):
        if i % 5 == 4:  # re-sight an existing node exactly: an update, not a create
            node = g.all_nodes()[int(rng.integers(n))]
            label, pose = Label(node.label_text, node.embedding), node.pose
        else:
            label, pose = Label(f"thing {i}", provider.embed(f"thing {i}")), Pose(1000.0 + 50 * i, 0.0)
        obs = Observation(
            frame_id=f"f{i}",
            pose=pose,
            time=4000.0 + i,
            labels=(label,),
            caption=Caption(f"scene {i}", provider.embed(f"scene {i}")),
        )
        g.ingest_observation(obs)
        captions.insert_caption(obs)
    created = frames - frames // 5
    assert g.node_count() == len(g.all_nodes()) == g._cols.size == n + created
    assert captions.record_count() == len(captions.all_records()) == captions._cols.size == n + frames
    assert g._cols.ids.shape[0] > n + _GROW
    for k in (1, K, n + created + 2):
        check_graph_tools(g, k, rng)
        check_caption_tools(captions, k, rng)
