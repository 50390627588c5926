"""The shared column store: exact top-k, bulk restore and growth."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DIM, random_graph, unit_rows
from lgr import (
    Caption,
    CaptionRecord,
    CaptionStore,
    Config,
    EntityNode,
    FixtureProvider,
    HashProvider,
    Label,
    MemoryGraph,
    Observation,
    Pose,
    RetrievalHit,
    SessionState,
    SessionStats,
    load_snapshot,
    save_snapshot,
    t_position,
    t_semantic,
    t_time,
)
from lgr import columns
from lgr.columns import _GROW, Columns, topk
from lgr.embedding import row_dots

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
        assert graph_cosine(g_shuffled, q, k) == graph_cosine(g_sorted, q, k)
        assert t_position(g_shuffled, 0.0, 0.0, 0.0, k) == t_position(g_sorted, 0.0, 0.0, 0.0, k)
        assert t_time(g_shuffled, 0, 15, 0, k) == t_time(g_sorted, 0, 15, 0, k)
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
    (r,) = c.all_records()
    # each is a read-only view of its store's chunk row, not of its input
    for item, store, given in ((a, g, f32[0]), (b, g, f32[1]), (r, c, f32[1])):
        e = item.embedding
        assert e.dtype == np.float32 and e.tobytes() == given.tobytes()
        assert not e.flags.writeable
        assert np.shares_memory(e, store._cols.chunks[0])
    assert not np.shares_memory(a.embedding, obs.labels[0].embedding)


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


# ----------------------------------------------------------------------
# float32 filter, float64 refine: the same ids and score bits as a full
# float64 scan
# ----------------------------------------------------------------------


def full_scan(emb: np.ndarray, q) -> np.ndarray:
    """Clipped float64 cosine of every stored float32 row, as one scan."""
    with np.errstate(all="ignore"):
        return np.clip(row_dots(emb.astype(np.float64), np.asarray(q, np.float64)), -1.0, 1.0)


def full_scan_top(emb: np.ndarray, q, k: int) -> tuple[list[int], bytes]:
    """Ids (row + 1) and score bytes of the k best rows, ties by id."""
    s = full_scan(emb, q)
    ids = np.arange(1, emb.shape[0] + 1)
    rows = np.lexsort((ids, -s))[:k]
    return (rows + 1).tolist(), s[rows].tobytes()


def full_scan_matches(emb, pos, q, p, delta_e: float, delta_p: float) -> list[int]:
    """Ids passing both gates, nearest first, id as tie-break."""
    d = np.sqrt((pos[:, 0] - p[0]) ** 2 + (pos[:, 1] - p[1]) ** 2 + (pos[:, 2] - p[2]) ** 2)
    hit = np.flatnonzero((full_scan(emb, q) > delta_e) & (d <= delta_p))
    return (hit[np.lexsort((hit, d[hit]))] + 1).tolist()


def graph_cosine(g: MemoryGraph, q, k: int) -> list[tuple[int, float]]:
    """(node_id, score) of the k nodes most similar to ``q``, as
    ``t_semantic`` ranks them."""
    return [(h.node_id, h.score) for h in g.hits(Columns.top_cosine, q, k, RetrievalHit)]


def got_top(pairs) -> tuple[list[int], bytes]:
    pairs = list(pairs)
    return [i for i, _ in pairs], np.array([s for _, s in pairs], dtype=np.float64).tobytes()


def stores_of(cfg: Config, emb: np.ndarray, pos: np.ndarray, restored: int):
    """A graph and a caption store holding emb's rows as ids 1..n.

    The first ``restored`` rows come in through restore; each later row is
    ingested as one frame (so it must be a unit vector and lie farther
    than ``delta_p`` from every other row).
    """
    n = emb.shape[0]
    nodes = [
        EntityNode(i + 1, f"e{i}", emb[i], Pose(*pos[i]), 0.0, float(i), 1) for i in range(restored)
    ]
    records = [
        CaptionRecord(i + 1, f"c{i}", emb[i], Pose(*pos[i]), float(i)) for i in range(restored)
    ]
    g, c = MemoryGraph.restore(cfg, nodes), CaptionStore.restore(cfg, records)
    for i in range(restored, n):
        obs = Observation(
            frame_id=f"f{i}",
            pose=Pose(*pos[i]),
            time=float(i),
            labels=(Label(f"e{i}", emb[i]),),
            caption=Caption(f"c{i}", emb[i]),
        )
        assert g.ingest_observation(obs).created == (i + 1,)
        assert c.insert_caption(obs) == i + 1
    return g, c


def tied_rows(rng, n: int, dim: int, dup_share: float) -> np.ndarray:
    """n float32 unit rows where about ``dup_share`` repeat an earlier row."""
    emb = unit_rows(n, dim, int(rng.integers(2**31)))
    for i in range(1, n):
        if rng.random() < dup_share:
            emb[i] = emb[int(rng.integers(i))]
    return emb


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 7, 384, 1000]),
    st.integers(0, 140),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "row", "-row"]),
    st.floats(-3.0, 3.0),
    st.booleans(),
    st.data(),
)
def test_cosine_tools_equal_full_float64_scan(dim, n, seed, mode, log_norm, grow, data):
    rng = np.random.default_rng(seed)
    emb = tied_rows(rng, n, dim, dup_share=data.draw(st.sampled_from([0.0, 0.3])))
    pos = np.column_stack([100.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    if grow:  # the rest is ingested, past one or more column growths
        restored = data.draw(st.integers(0, min(n, 8)))
    else:  # all restored, with row norms away from 1 as well
        restored = n
        emb *= rng.choice(np.array([1.0, 0.5, 2.0, 3.0], np.float32), size=(n, 1))
    if mode != "random" and n:
        q = emb[int(rng.integers(n))].astype(np.float64) * (-1.0 if mode == "-row" else 1.0)
    else:
        q = rng.standard_normal(dim)
        q *= 10.0**log_norm / np.linalg.norm(q)
    g, c = stores_of(Config(embedding_dim=dim), emb, pos, restored)
    for store in (g, c):  # the filter's bound holds row by row
        cols = store._cols
        eps, s32 = cols._eps(q), cols._scores32(q)  # one float32 score per stored vector
        s32 = s32[cols.uid[:n]]
        assert eps < 1.0 and np.all(np.abs(s32 - full_scan(emb, q)) <= eps)
    ks = {1, n, n + 1, n + 2, data.draw(st.integers(1, n + 2))} - {0}
    for k in sorted(ks):
        want = full_scan_top(emb, q, k)
        assert got_top(graph_cosine(g, q, k)) == want
        assert got_top((h.record_id, h.score) for h in c.query_text(q, k)) == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 64, 384]), st.integers(1, 60), st.integers(0, 2**32 - 1), st.data())
def test_ingest_gate_equals_full_scan_at_threshold_edges(dim, n, seed, data):
    rng = np.random.default_rng(seed)
    delta_p = 5.0
    p = np.array([1.0, -2.0, 0.5])
    e = unit_rows(1, dim, int(rng.integers(2**31)))[0]
    # rows near the query, some repeated, so several scores clear a high delta_e
    noisy = e + rng.uniform(0.0, 1.5) * unit_rows(n, dim, int(rng.integers(2**31)))
    emb = (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)).astype(np.float32)
    for i in range(1, n):
        if rng.random() < 0.25:
            emb[i] = emb[int(rng.integers(i))]
    # exactly at delta_p, just past it, inside, or outside
    edge = np.array([p[0] + delta_p, np.nextafter(p[0] + delta_p, np.inf), p[0] + 1.0, p[0] + 9.0])
    pos = np.tile(p, (n, 1))
    pos[:, 0] = edge[rng.integers(4, size=n)]
    target = full_scan(emb, e)[data.draw(st.integers(0, n - 1))]
    nodes = [EntityNode(i + 1, f"e{i}", emb[i], Pose(*pos[i]), 0.0, 0.0, 1) for i in range(n)]
    for delta_e in (target, np.nextafter(target, -np.inf), np.nextafter(target, np.inf)):
        if not 0.0 < delta_e <= 1.0:
            continue
        cfg = Config(embedding_dim=dim, delta_e=float(delta_e), delta_p=delta_p)
        g = MemoryGraph.restore(cfg, nodes)
        want = full_scan_matches(emb, pos, e, p, cfg.delta_e, delta_p)
        assert g.find_matches(e, Pose(*p)) == want
        obs = Observation("f", Pose(*p), 1.0, labels=(Label("q", e),))
        report = g.ingest_observation(obs)
        assert (report.created, report.updated) == (((), (want[0],)) if want else ((n + 1,), ()))


@pytest.mark.parametrize("nan_row", [False, True])
def test_non_finite_query_or_row_equals_full_scan(nan_row):
    dim, n = 16, 40
    cfg = Config(embedding_dim=dim, delta_e=0.5)
    emb = tied_rows(np.random.default_rng(3), n, dim, dup_share=0.2)
    emb[:, 0] = np.abs(emb[:, 0])  # an inf first component gives +inf scores
    emb[5, 0] = 0.0  # and inf * 0 a NaN one
    if nan_row:
        emb[7] = np.nan
    pos = np.zeros((n, 3))
    g, c = stores_of(cfg, emb, pos, restored=n)
    inf_q = np.zeros(dim)
    inf_q[0] = np.inf
    queries = [emb[3].astype(np.float64), np.full(dim, np.nan), inf_q, -inf_q]
    for q in queries:
        for k in (1, 3, n - 1, n, n + 2):
            want = full_scan_top(emb, q, k)
            assert got_top(graph_cosine(g, q, k)) == want
            assert got_top((h.record_id, h.score) for h in c.query_text(q, k)) == want
        want = full_scan_matches(emb, pos, q, np.zeros(3), cfg.delta_e, cfg.delta_p)
        assert g.find_matches(q, Pose(0.0, 0.0)) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 12),
    st.integers(0, 30),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_tools_and_gate_equal_oracles_across_chunks(chunk, restored, ingested, seed, data):
    # rows restored into one chunk, then ingested into chunks of ``chunk``
    # rows: each row is a*e + b*u_i with orthonormal u_i, so a row scores a
    # against e, and two rows score a_i*a_j < delta_e against each other
    n, cfg = restored + ingested, Config(embedding_dim=DIM, delta_e=0.5)
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((DIM, n + 1)))[0].T
    e, u = basis[0], basis[1:]
    a = rng.choice([0.7, 0.6, 0.3, -0.6], size=n)[:, None]
    emb = (a * e + np.sqrt(1.0 - a * a) * u).astype(np.float32)
    # the first row of each chunk repeats the last row of the one before:
    # the two tie on every score, on opposite sides of p, 8 m apart
    p = np.array([3.0, -1.0, 0.5])
    pos = np.tile(p, (n, 1))
    pos[:, 0] += np.where(np.arange(n) % 2, 4.0, -4.0)
    dup = np.zeros(n, bool)
    for b in range(restored or chunk, n, chunk):
        if not dup[b - 1]:
            emb[b], dup[b] = emb[b - 1], True
    with mock.patch.object(columns, "_CHUNK", chunk):
        g, c = stores_of(cfg, emb, pos, restored)
        # an ingested repeat of an ingested row shares its vector; restored
        # rows are not hashed, so a repeat of one is stored again
        stored = ingested - np.count_nonzero(dup[restored + 1 :])
        assert len(g._cols.chunks) == (restored > 0) + math.ceil(stored / chunk)
        for k in sorted({1, chunk, chunk + 1, 2 * chunk + 1, n, n + 2} - {0}):
            check_graph_tools(g, k, rng)
            check_caption_tools(c, k, rng)
            for q in [e, rng.standard_normal(DIM)] + [emb[b] for b in np.flatnonzero(dup)[:2]]:
                want = full_scan_top(emb, q, k)
                assert got_top(graph_cosine(g, q, k)) == want
                assert got_top((h.record_id, h.score) for h in c.query_text(q, k)) == want
        nodes = [(nd.node_id, nd.embedding, (nd.pose.x, nd.pose.y, nd.pose.z)) for nd in g.all_nodes()]
        for q in [emb[b] for b in np.flatnonzero(dup)[:2]] + [e]:
            want = oracles.find_matches_naive(nodes, q, p, cfg.delta_e, cfg.delta_p)
            assert want == full_scan_matches(emb, pos, q, p, cfg.delta_e, cfg.delta_p)
            assert g.find_matches(q, Pose(*p)) == want
        # ``want`` now holds e's matches: a frame sighting e at p updates the first
        report = g.ingest_observation(Observation("f", Pose(*p), 1.0, labels=(Label("q", e),)))
        assert (report.created, report.updated) == (((), (want[0],)) if want else ((n + 1,), ()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 7, 384, 1000]), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_row_dots_bits_depend_only_on_row_content(dim, n, seed):
    # the refine rescores a copy of some rows and must give the full scan's bits
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    q = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0)
    full = row_dots(emb.astype(np.float64), q)
    for _ in range(4):
        rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=bool(rng.integers(2)))
        assert row_dots(emb[rows].astype(np.float64), q).tobytes() == full[rows].tobytes()


def check_one_float32_column(store) -> None:
    cols = store._cols
    # float32 chunks are the only embedding table: no 2-D array outside the
    # chunk list, no other list of arrays, and no chunk overlaps another
    arrays = [v for v in vars(cols).values() if isinstance(v, np.ndarray)]
    assert all(v.ndim == 1 for v in arrays)
    lists = [v for v in vars(cols).values() if isinstance(v, list) and v]
    assert all(v is cols.chunks or not isinstance(v[0], np.ndarray) for v in lists)
    assert all(c.dtype == np.float32 and c.shape[1:] == (cols.dim,) for c in cols.chunks)
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(cols.chunks) for b in cols.chunks[:i]
    )
    assert not any(isinstance(v, np.ndarray) for v in vars(store).values())
    # chunk layout: contiguous row ranges, each in use, later ones _CHUNK rows
    ends = np.cumsum([c.shape[0] for c in cols.chunks]).tolist()
    assert cols.starts == ([0] + ends)[: len(ends)] and all(s < cols.size for s in cols.starts)
    assert all(c.shape[0] == columns._CHUNK for c in cols.chunks[1:])
    emb = np.concatenate(cols.blocks()) if cols.chunks else np.empty((0, cols.dim), np.float32)
    assert emb.shape[0] == cols.size
    norms = np.linalg.norm(emb.astype(np.float64), axis=1)
    assert np.all(norms <= cols.norm_bound) and cols.norm_bound <= 1.001 * norms.max(initial=0.0)


def test_one_float32_embedding_column_whose_norm_bound_holds(cfg64, monkeypatch):
    monkeypatch.setattr(columns, "_CHUNK", 16)  # appends span several chunks
    rng = np.random.default_rng(21)
    n = 30
    emb = unit_rows(n, DIM, seed=22) * rng.uniform(0.1, 4.0, size=(n, 1)).astype(np.float32)
    pos = np.column_stack([100.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    g, c = stores_of(cfg64, emb, pos, restored=n)  # restore
    for store in (g, c):
        check_one_float32_column(store)
    fresh = unit_rows(_GROW + 5, DIM, seed=23)
    for i, e in enumerate(fresh):  # append, past a column growth
        pose = Pose(-100.0 * (i + 1), 0.0)
        obs = Observation(f"f{i}", pose, 1.0, labels=(Label("a", e),), caption=Caption("c", e))
        g.ingest_observation(obs)
        c.insert_caption(obs)
    assert len(g._cols.chunks) == 1 + math.ceil((_GROW + 5) / 16)
    node = g.all_nodes()[-1]  # update: re-sight a node in place
    before = [b.tobytes() for b in g._cols.blocks()], g._cols.norm_bound
    resight = Observation("u", node.pose, 2.0, labels=(Label("a", node.embedding),))
    report = g.ingest_observation(resight)
    assert report.updated == (node.node_id,)
    # an update rewrites position and time only: the chunks and the bound stay
    assert ([b.tobytes() for b in g._cols.blocks()], g._cols.norm_bound) == before
    for store in (g, c):
        check_one_float32_column(store)
    empty = CaptionStore.restore(cfg64, [])
    check_one_float32_column(empty)
    assert empty._cols.norm_bound == 0.0


def test_refine_is_exact_for_any_filter_error_within_the_bound(monkeypatch):
    # an adversarial filter: every float32 score moved by up to 0.9 eps, up
    # or down at random, over rows whose scores lie a few eps apart
    signs = np.random.default_rng(41)

    def adversary(self, q64):
        n, eps = self.size, self._eps(q64)
        s = self._refine(np.arange(n), q64) + 0.9 * eps * signs.choice([-1.0, 1.0], size=n)
        return np.clip(s, -1.0, 1.0).astype(np.float32)

    monkeypatch.setattr(Columns, "_scores32", adversary)
    cfg = Config(delta_e=0.9)
    n = 40
    base = unit_rows(1, cfg.embedding_dim, seed=42)
    noisy = base + 2e-5 * unit_rows(n, cfg.embedding_dim, seed=43)
    emb = (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)).astype(np.float32)
    emb[5] = emb[9]  # and an exact tie
    pos = np.zeros((n, 3))
    g, c = stores_of(cfg, emb, pos, restored=n)
    for q in (base[0], emb[9], unit_rows(1, cfg.embedding_dim, seed=44)[0]):
        # the scores lie within 20 eps of each other
        assert g._cols._eps(np.float64(q)) > np.ptp(full_scan(emb, q)) / 20
        for k in range(1, n + 3):
            want = full_scan_top(emb, q, k)
            assert got_top(graph_cosine(g, q, k)) == want
            assert got_top((h.record_id, h.score) for h in c.query_text(q, k)) == want
    s = full_scan(emb, base[0])
    for floor in np.sort(s)[::4]:
        gate = MemoryGraph.restore(Config(delta_e=float(floor)), g.all_nodes())
        want = full_scan_matches(emb, pos, base[0], np.zeros(3), float(floor), cfg.delta_p)
        assert gate.find_matches(base[0], Pose(0.0, 0.0)) == want


def test_cosine_scans_rescore_only_candidates(monkeypatch):
    rescored = []
    refine = Columns._refine

    def spy(self, rows, q64):
        rescored.append(rows.shape[0])
        return refine(self, rows, q64)

    monkeypatch.setattr(Columns, "_refine", spy)
    cfg = Config()
    n = 2000
    emb = unit_rows(n, cfg.embedding_dim, seed=31)
    pos = np.zeros((n, 3))
    g, c = stores_of(cfg, emb, pos, restored=n)
    q = unit_rows(1, cfg.embedding_dim, seed=32)[0]
    assert got_top(graph_cosine(g, q, 5)) == full_scan_top(emb, q, 5)
    assert got_top((h.record_id, h.score) for h in c.query_text(q, 5)) == full_scan_top(emb, q, 5)
    assert g.find_matches(emb[9], Pose(0.0, 0.0)) == [10]
    assert len(rescored) == 3 and max(rescored) <= 20, rescored


# ----------------------------------------------------------------------
# interned stores: each distinct appended vector stored once
# ----------------------------------------------------------------------


def twin_pool(classes: int, seed: int) -> np.ndarray:
    """Orthonormal float32 unit rows whose first component is 0.0, each
    followed by a twin that differs only in that component's sign
    (``-0.0``): the twins tie on every score, but their bytes differ."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((DIM - 1, classes)))[0].T
    pool = np.zeros((2 * classes, DIM), np.float32)
    pool[:, 1:] = np.repeat(basis, 2, axis=0)
    pool[1::2, 0] = -0.0
    return pool


def check_interned(store, emb: np.ndarray, restored: int) -> None:
    """Restored rows hold one vector each; an appended row shares the
    vector of an earlier appended row with the same bytes; every
    appended item's embedding is a read-only view of its vector's row."""
    cols = store._cols
    first: dict[bytes, int] = {}
    for row in emb[restored:]:
        first.setdefault(row.tobytes(), len(first))
    assert cols.distinct == sum(b.shape[0] for b in cols.blocks()) == restored + len(first)
    uid = cols.uid[: cols.size]
    assert np.array_equal(uid[:restored], np.arange(restored))
    # appended vectors are numbered after the restored ones, in order of
    # first appearance
    assert (uid[restored:] - restored).tolist() == [first[r.tobytes()] for r in emb[restored:]]
    for row, item in enumerate(store._all()):  # restored items keep their own arrays
        e = item.embedding
        assert e.tobytes() == emb[row].tobytes()
        if row >= restored:
            assert not e.flags.writeable and np.shares_memory(e, cols._vector(int(uid[row])))


def check_cosine_and_gate(g: MemoryGraph, c: CaptionStore, emb, pos, queries, ks, cfg) -> None:
    """Both cosine tools and the ingest gate against full scans (ids, order
    and score bits) and the oracles."""
    nodes = [(nd.node_id, nd.embedding, (nd.pose.x, nd.pose.y, nd.pose.z)) for nd in g.all_nodes()]
    for q in queries:
        for k in ks:
            want = full_scan_top(emb, q, k)
            assert got_top(graph_cosine(g, q, k)) == want
            assert got_top((h.record_id, h.score) for h in c.query_text(q, k)) == want
            oracles.assert_ranking(
                graph_cosine(g, q, k),
                oracles.rank_semantic([(i, e) for i, e, _ in nodes], q, k),
            )
        for p in pos[:: max(1, len(pos) // 4)]:
            want = oracles.find_matches_naive(nodes, q, p, cfg.delta_e, cfg.delta_p)
            assert want == full_scan_matches(emb, pos, q, p, cfg.delta_e, cfg.delta_p)
            assert g.find_matches(q, Pose(*p)) == want
        for store in (g, c):
            for floor in (-1.0, 0.0, 0.5, float(np.nextafter(1.0, 0.0))):
                mask = np.ones(store._cols.size, bool)
                want = np.flatnonzero(full_scan(emb, q) > floor)
                assert np.array_equal(store._cols.cosine_above(q, floor, mask), want)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 6),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_interned_stores_equal_oracles(chunk, restored, appended, seed, data):
    # rows 3 m apart draw from a few classes of twins, never the class of
    # the row before: a row matches no earlier row, so each is created, and
    # rows 3 m apart score 0 against each other
    cfg = Config(embedding_dim=DIM, delta_e=0.5)
    rng = np.random.default_rng(seed)
    classes = data.draw(st.integers(2, 4))
    pool = twin_pool(classes, seed)
    n = restored + appended
    picks = [int(rng.integers(2 * classes))]
    for _ in range(n - 1):
        nxt = int(rng.integers(2 * classes))
        if nxt // 2 == picks[-1] // 2:
            nxt = (nxt + 2) % (2 * classes)
        picks.append(nxt)
    emb = pool[picks]
    pos = np.column_stack([3.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    queries = [pool[0], pool[1], pool[2] + pool[3], rng.standard_normal(DIM)]
    ks = sorted({1, 2, chunk, chunk + 1, n, n + 2, data.draw(st.integers(1, n + 2))})
    with mock.patch.object(columns, "_CHUNK", chunk):
        g, c = stores_of(cfg, emb, pos, restored)
        for store in (g, c):
            check_interned(store, emb, restored)
        check_cosine_and_gate(g, c, emb, pos, queries, ks, cfg)
        for k in (1, chunk + 1, n + 2):
            check_graph_tools(g, k, rng)
            check_caption_tools(c, k, rng)
    state = SessionState(cfg, HashProvider(5, DIM), g, c, SessionStats())
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(state, Path(tmp) / "s.lgrsnap")
        loaded = load_snapshot(Path(tmp) / "s.lgrsnap")
    for before, after in ((g, loaded.graph), (c, loaded.captions)):
        assert after.vector_count() == before.vector_count()
        assert [it.embedding.tobytes() for it in after._all()] == [r.tobytes() for r in emb]
        cols = after._cols
        assert np.array_equal(cols.uid[:n], before._cols.uid[:n])
        for row, item in enumerate(after._all()):  # items are views of their vector
            assert np.shares_memory(item.embedding, cols._vector(int(cols.uid[row])))
    check_cosine_and_gate(loaded.graph, loaded.captions, emb, pos, queries, ks, cfg)
    for k in (1, n + 2):
        check_graph_tools(loaded.graph, k, rng)
        check_caption_tools(loaded.captions, k, rng)


@pytest.mark.parametrize("collide", [False, True])
def test_signed_zero_twins_are_stored_apart(cfg64, monkeypatch, collide):
    if collide:  # every vector hashes alike: only the byte check tells them apart
        monkeypatch.setattr(columns, "hash", lambda key: 0, raising=False)
    pool = twin_pool(1, seed=3)
    c = CaptionStore(cfg64)
    for i, v in enumerate([pool[0], pool[1], pool[0], pool[1]]):
        c.insert_caption(Observation(f"f{i}", Pose(0.0, 0.0), float(i), caption=Caption("c", v)))
    cols = c._cols
    # a colliding vector is stored, but not indexed, so its repeat is stored again
    assert cols.uid[:4].tolist() == ([0, 1, 0, 2] if collide else [0, 1, 0, 1])
    a, b, a2, b2 = (r.embedding for r in c.all_records())
    assert np.shares_memory(a, a2) and np.shares_memory(b, b2) != collide
    assert not np.shares_memory(a, b) and not np.shares_memory(a, b2)
    assert a.tobytes() != b.tobytes() and np.array_equal(a, b)
    # all four tie: ids break the tie, in the full scan's order
    assert [h.record_id for h in c.query_text(pool[0], 3)] == [1, 2, 3]


def test_interned_scans_rescore_only_candidate_vectors(monkeypatch):
    rescored = []
    refine = Columns._refine

    def spy(self, vectors, q64):
        rescored.append(vectors.shape[0])
        return refine(self, vectors, q64)

    monkeypatch.setattr(Columns, "_refine", spy)
    cfg = Config()
    n = 2000
    emb = tied_rows(np.random.default_rng(33), n, cfg.embedding_dim, dup_share=0.5)
    pos = np.column_stack([100.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    g, c = stores_of(cfg, emb, pos, restored=0)
    assert g._cols.uid is not None and c.vector_count() < 0.6 * n
    rescored.clear()  # ingest ran the gate once per row
    q = unit_rows(1, cfg.embedding_dim, seed=34)[0]
    assert got_top(graph_cosine(g, q, 5)) == full_scan_top(emb, q, 5)
    assert got_top((h.record_id, h.score) for h in c.query_text(q, 5)) == full_scan_top(emb, q, 5)
    mask = np.ones(n, bool)
    want = np.flatnonzero(full_scan(emb, emb[9]) > cfg.delta_e)
    assert np.array_equal(g._cols.cosine_above(emb[9], cfg.delta_e, mask), want)
    assert len(rescored) == 3 and max(rescored) <= 20, rescored


def test_stores_with_no_shared_vector_hold_row_i_in_vector_i(cfg64):
    # restored and appended rows with distinct vectors: row i holds vector i
    n = 50
    emb = unit_rows(n, DIM, seed=51)
    pos = np.column_stack([100.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    g, c = stores_of(cfg64, emb, pos, restored=20)
    for store in (g, c):
        assert np.array_equal(store._cols.uid[:n], np.arange(n))
        assert store.vector_count() == len(store) == n
        check_one_float32_column(store)


# ----------------------------------------------------------------------
# the gate's memo: a repeat query scores only the vectors appended since
# ----------------------------------------------------------------------


def memo_pool(seed: int) -> np.ndarray:
    """Float32 rows whose first component is 0.0: e, then rows scoring
    0.9, 0.75, 0.6 and 0.3 against it, each followed by a ``-0.0`` twin
    whose bytes differ and whose scores tie."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((DIM - 1, 5)))[0].T
    a = np.array([1.0, 0.9, 0.75, 0.6, 0.3])[:, None]
    other = np.vstack([np.zeros(DIM - 1), basis[1:]])
    pool = np.zeros((10, DIM), np.float32)
    pool[:, 1:] = np.repeat(a * basis[0] + np.sqrt(1.0 - a * a) * other, 2, axis=0)
    pool[1::2, 0] = -0.0
    return pool


def check_memo(cols: Columns) -> None:
    """Each entry is keyed by its vector's bytes, at most one per stored
    vector, and the memo keeps no more vectors than it may."""
    assert len(cols._memo) <= cols.distinct
    for h, (u, _, m, kept) in cols._memo.items():
        assert h == columns.hash(cols._vector(u).tobytes())
        assert u < cols.distinct and m <= cols.distinct
        assert np.all(kept[1:] > kept[:-1]) and (not kept.size or kept[-1] < m)
    assert cols._memo_ids == sum(e[3].shape[0] for e in cols._memo.values())
    assert cols._memo_ids <= cols.size + cols.distinct


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(0, 5),
    st.lists(
        st.tuples(
            st.sampled_from(["append", "append", "grow", "none"]),
            st.integers(0, 9),  # the vector appended
            st.integers(0, 9),  # the vector queried
            st.sampled_from([0.1, 0.5, 0.75, 0.85, "edge", "below edge", "above edge", "float64"]),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(  # a vector appended between repeats whose score lies between their cuts
    chunk=2,
    restored=0,
    steps=[
        ("grow", 8, 0, 0.5),  # no later append raises norm_bound
        ("append", 0, 0, 0.5),
        ("append", 6, 0, 0.85),  # scores 0.6 against the query
        ("none", 0, 0, 0.5),
    ],
    seed=1,
    collide=False,
)
def test_gate_memo_equals_a_full_float64_scan(chunk, restored, steps, seed, collide):
    # appends across chunk boundaries; repeated queries and their -0.0
    # twins; floors that move between repeats, exactly at a stored row's
    # score or one step either side of it, or low enough to fill the
    # memo's budget; queries that round to a stored vector in float32 but
    # are not one; and appends of longer vectors, which raise norm_bound
    # and so lower the cut of every later query. With ``collide`` every
    # vector hashes alike, so only the byte checks tell entries apart.
    rng = np.random.default_rng(seed)
    pool = memo_pool(seed)
    hashing = (lambda key: 0) if collide else hash
    with (
        mock.patch.object(columns, "_CHUNK", chunk),
        mock.patch.object(columns, "hash", hashing, create=True),
    ):
        emb = [pool[i % 10] for i in range(restored)]  # restored rows are not hashed
        records = [CaptionRecord(i + 1, "c", v, Pose(0.0, 0.0), 0.0) for i, v in enumerate(emb)]
        cols = CaptionStore.restore(Config(embedding_dim=DIM), records)._cols
        for op, a, b, mode in steps:
            if op != "none":
                v = pool[a] * np.float32(1.5 if op == "grow" else 1.0)
                cols.append(len(emb) + 1, v, "c", Pose(0.0, 0.0), time=0.0)
                emb.append(v)
            q = pool[b].astype(np.float64)
            floor = mode if isinstance(mode, float) else 0.75
            if mode == "float64":  # a query of the same float32 bytes, not a float32 one
                q *= 1.0 + 2.0**-40
            elif emb and isinstance(mode, str):
                floor = float(full_scan(np.array(emb), q)[rng.integers(len(emb))])
                if mode != "edge":
                    floor = float(np.nextafter(floor, np.inf if mode == "above edge" else -np.inf))
            mask = rng.random(len(emb)) < 0.8
            want = np.flatnonzero(mask & (full_scan(np.array(emb).reshape(-1, DIM), q) > floor))
            assert np.array_equal(cols.cosine_above(q, floor, mask), want)
            check_memo(cols)


def test_third_sighting_scores_only_the_vectors_appended_since_the_second(cfg64, monkeypatch):
    scored = []
    scores32 = Columns._scores32

    def counter(self, q64, lo=0):
        s = scores32(self, q64, lo)
        scored.append(s.shape[0])
        return s

    monkeypatch.setattr(Columns, "_scores32", counter)
    g = random_graph(10_000, cfg64, seed=61)
    cols = g._cols
    far = iter(unit_rows(40, DIM, seed=62))
    t = iter(range(1000))

    def sight(label: np.ndarray, at: Pose) -> tuple:
        scored.clear()
        obs = Observation("f", at, float(next(t)), labels=(Label("x", label),))
        report = g.ingest_observation(obs)
        assert len(scored) <= 1
        return sum(scored), report

    def new_nodes(n: int) -> int:
        before = cols.distinct
        for i in range(n):  # unseen labels, far from every node
            sight(next(far), Pose(1000.0 + 10.0 * i, 0.0))
        return cols.distinct - before

    restored = g.get_node(77)
    fresh = unit_rows(1, DIM, seed=63)[0]
    for label, at in ((restored.embedding, restored.pose), (fresh, Pose(500.0, 0.0))):
        first, report = sight(label, at)
        created = len(report.created)  # the label's own node, appended after the pass
        assert first == cols.distinct - created  # a full pass
        appended = new_nodes(7)
        second, report = sight(label, at)
        assert report.created == () and second <= created + appended
        appended = new_nodes(5)
        third, report = sight(label, at)
        assert report.created == () and third <= appended == 5
