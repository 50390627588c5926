"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines
and timings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import oracles
from conftest import random_graph, unit_rows
from lgr import (
    AnswerAction,
    CallTool,
    Caption,
    CaptionRecord,
    CaptionStore,
    Config,
    FixtureProvider,
    HashProvider,
    Label,
    MemoryGraph,
    Observation,
    Pose,
    QAItem,
    Router,
    RuleBasedPlanner,
    SessionState,
    SessionStats,
    SnapshotError,
    evaluate,
    fallback_percentage,
    load_snapshot,
    record_to_observation,
    save_snapshot,
    spatial_error,
    t_position,
    t_semantic,
    t_time,
    temporal_error,
    write_log,
)
from worlds import (
    ScriptedPlanner,
    build_synonym_fixture,
    generate_synthetic_session,
    grid_tour_world,
)


def report(line: str) -> None:
    print(f"PASS {line}")


ENTITY_LABELS = (
    "hydrant", "bench", "fountain", "statue", "mailbox",
    "bicycle", "ladder", "crate", "barrel", "lamp post",
    "kiosk", "scooter", "trash bin", "fire extinguisher", "vending machine",
    "planter", "signpost", "traffic cone", "generator", "toolbox",
)


# ----------------------------------------------------------------------
# criterion 1: retrieval oracle equivalence
# ----------------------------------------------------------------------


def random_caption_store(n: int, cfg: Config, seed: int) -> CaptionStore:
    rng = np.random.default_rng(seed + 500)
    emb = unit_rows(n, cfg.embedding_dim, seed + 501)
    # repeat some embeddings and poses exactly to force score ties
    for i in range(0, n, 19):
        if i:
            emb[i] = emb[i - 19]
    records = []
    for i in range(n):
        j = i - 19 if (i and i % 19 == 0) else i
        pos = rng.uniform(-60, 60, size=3)
        records.append(
            CaptionRecord(
                record_id=i + 1,
                text=f"scene {j}",
                embedding=emb[i],
                pose=Pose(*pos),
                time=float(rng.uniform(0, 2000)),
            )
        )
    return CaptionStore.restore(cfg, records)


def test_criterion_1_retrieval_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = Config(embedding_dim=64)
    n_queries = 200
    for seed in range(20):
        provider = HashProvider(seed=seed, dim=64)
        graph = random_graph(1000, cfg, seed=seed, duplicate_every=13)
        captions = random_caption_store(500, cfg, seed)
        nodes = graph.all_nodes()
        node_ids = [n.node_id for n in nodes]
        node_emb = np.stack([n.embedding for n in nodes])
        node_pos = np.array([[n.pose.x, n.pose.y, n.pose.z] for n in nodes])
        node_time = np.array([n.last_seen for n in nodes])
        records = captions.all_records()
        rec_ids = [r.record_id for r in records]
        rec_emb = np.stack([r.embedding for r in records])
        rec_pos = np.array([[r.pose.x, r.pose.y, r.pose.z] for r in records])
        rec_time = np.array([r.time for r in records])
        rng = np.random.default_rng(seed + 9000)
        cap_queries = unit_rows(n_queries, 64, seed + 77)
        for i in range(n_queries):
            k = int(rng.integers(1, 21))
            text = f"query-{seed}-{i}"
            got = t_semantic(graph, provider, text, k)
            want = oracles.rank_semantic_arrays(
                node_ids, node_emb, provider.embed(text), k
            )
            oracles.assert_ranking([(h.node_id, h.score) for h in got], want)

            p = rng.uniform(-70, 70, size=3)
            got = t_position(graph, p[0], p[1], p[2], k)
            want = oracles.rank_position_arrays(node_ids, node_pos, p, k)
            oracles.assert_ranking([(h.node_id, h.score) for h in got], want)

            hh, mm, ss = int(rng.integers(0, 2)), int(rng.integers(0, 60)), int(rng.integers(0, 60))
            got = t_time(graph, hh, mm, ss, k)
            want = oracles.rank_time_arrays(node_ids, node_time, 3600 * hh + 60 * mm + ss, k)
            oracles.assert_ranking([(h.node_id, h.score) for h in got], want)

            q = cap_queries[i]
            got = captions.query_text(q, k)
            want = oracles.rank_semantic_arrays(rec_ids, rec_emb, q, k)
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)

            got = captions.query_position(Pose(*p), k)
            want = oracles.rank_position_arrays(rec_ids, rec_pos, p, k)
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)

            t = float(rng.uniform(0, 2000))
            got = captions.query_time(t, k)
            want = oracles.rank_time_arrays(rec_ids, rec_time, t, k)
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"retrieval equivalence took {elapsed:.1f} s"
    report(
        "criterion 1: 20 seeds x 200 queries x 6 ops match the full-scan "
        f"oracle exactly ({elapsed:.1f} s)"
    )


# ----------------------------------------------------------------------
# criterion 2: ingestion oracle equivalence
# ----------------------------------------------------------------------


def random_session(seed: int, n_obs: int, provider, synonyms) -> list[Observation]:
    rng = np.random.default_rng(seed + 300)
    pool = [name for names in synonyms.values() for name in names]
    out = []
    x, y = 0.0, 0.0
    for i in range(n_obs):
        x += float(rng.uniform(-3.0, 3.0))
        y += float(rng.uniform(-3.0, 3.0))
        pose = Pose(x, y, float(rng.uniform(-0.5, 0.5)), 0.0)
        n_labels = int(rng.integers(0, 4))
        names = [pool[int(rng.integers(0, len(pool)))] for _ in range(n_labels)]
        out.append(
            Observation(
                frame_id=f"s{seed}-f{i}",
                pose=pose,
                time=i * 2.0,
                labels=tuple(Label(n, provider.embed(n)) for n in names),
            )
        )
    return out


def test_criterion_2_ingestion_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = Config(embedding_dim=32)
    table, synonyms = build_synonym_fixture(
        ["cup", "chair", "plant", "sign", "box", "door"], dim=32, seed=2
    )
    provider = FixtureProvider(table, fallback=HashProvider(0, 32))
    for seed in range(20):
        observations = random_session(seed, 200, provider, synonyms)
        graph = MemoryGraph(cfg)
        reference = oracles.ReferenceGraph(cfg.delta_p, cfg.delta_e)
        for obs in observations:
            graph.ingest_observation(obs)
            reference.ingest(
                (obs.pose.x, obs.pose.y, obs.pose.z, obs.pose.yaw),
                obs.time,
                [(lab.text, lab.embedding) for lab in obs.labels],
            )
        got = sorted(
            (
                n.embedding.tobytes(),
                n.obs_count,
                n.last_seen,
                (n.pose.x, n.pose.y, n.pose.z),
            )
            for n in graph.all_nodes()
        )
        want = sorted(reference.signatures())
        assert len(got) == len(want), f"seed {seed}: node counts differ"
        for g, w in zip(got, want):
            assert g[0] == w[0], f"seed {seed}: embedding multiset differs"
            assert g[1] == w[1], f"seed {seed}: obs_count differs"
            assert g[2] == w[2], f"seed {seed}: last_seen differs"
            for gc, wc in zip(g[3], w[3]):
                assert abs(gc - wc) <= 1e-6, f"seed {seed}: pose differs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"ingestion equivalence took {elapsed:.1f} s"
    report(
        "criterion 2: 20 seeds x 200-observation sessions match the naive "
        f"reference replay ({elapsed:.1f} s)"
    )


# ----------------------------------------------------------------------
# criterion 3: dedup and separation behavior
# ----------------------------------------------------------------------


def test_criterion_3_dedup_and_separation():
    cfg = Config(embedding_dim=32)
    table, synonyms = build_synonym_fixture(
        ["cup", "chair", "plant", "sign", "box", "door"], dim=32, seed=3
    )
    provider = FixtureProvider(table, fallback=HashProvider(0, 32))

    # re-ingesting an identical observation never creates on the second pass
    graph = MemoryGraph(cfg)
    frames = random_session(99, 100, provider, synonyms)
    for obs in frames:
        graph.ingest_observation(obs)
        again = graph.ingest_observation(obs)
        assert again.created == (), f"second pass created nodes for {obs.frame_id}"

    # n in-radius sightings of a stationary entity collapse to one node
    emb = provider.embed("cup")
    for n in (2, 10, 100):
        g = MemoryGraph(cfg)
        rng = np.random.default_rng(n)
        positions = rng.uniform(-1.2, 1.2, size=(n, 3))
        for i, p in enumerate(positions):
            g.ingest_observation(
                Observation(
                    frame_id=f"f{i}",
                    pose=Pose(*p),
                    time=float(i),
                    labels=(Label("cup", emb),),
                )
            )
        assert g.node_count() == 1
        node = g.get_node(1)
        assert node.obs_count == n
        mean = positions.mean(axis=0)
        assert abs(node.pose.x - mean[0]) <= 1e-6
        assert abs(node.pose.y - mean[1]) <= 1e-6
        assert abs(node.pose.z - mean[2]) <= 1e-6

    # two same-label sightings 2 * delta_p apart stay separate
    g = MemoryGraph(cfg)
    for i, x in enumerate((0.0, 2 * cfg.delta_p)):
        g.ingest_observation(
            Observation(
                frame_id=f"sep{i}", pose=Pose(x, 0.0), time=float(i),
                labels=(Label("cup", emb),),
            )
        )
    assert g.node_count() == 2

    # k=3 vs h=1: one update, two creations
    g = MemoryGraph(cfg)
    g.ingest_observation(
        Observation(frame_id="seed", pose=Pose(0.0, 0.0), time=0.0,
                    labels=(Label("cup", emb),))
    )
    rep = g.ingest_observation(
        Observation(frame_id="triple", pose=Pose(1.0, 0.0), time=1.0,
                    labels=(Label("cup", emb),) * 3)
    )
    assert rep.updated == (1,) and len(rep.created) == 2

    # k=1 vs h=3: only the nearest node is updated
    from lgr import EntityNode

    nodes = [
        EntityNode(1, "cup", emb, Pose(3.0, 0.0), 0.0, 0.0, 1),
        EntityNode(2, "cup", emb, Pose(1.0, 0.0), 0.0, 0.0, 1),
        EntityNode(3, "cup", emb, Pose(2.0, 0.0), 0.0, 0.0, 1),
    ]
    g = MemoryGraph.restore(cfg, nodes)
    rep = g.ingest_observation(
        Observation(frame_id="single", pose=Pose(0.0, 0.0), time=9.0,
                    labels=(Label("cup", emb),))
    )
    assert rep.updated == (2,) and rep.created == ()
    assert g.get_node(2).obs_count == 2
    assert g.get_node(1).obs_count == 1 and g.get_node(3).obs_count == 1
    report("criterion 3: dedup, convergence, separation, and k-vs-h behavior")


# ----------------------------------------------------------------------
# criterion 4: metric gates
# ----------------------------------------------------------------------


def test_criterion_4_metric_gates():
    assert spatial_error(Pose(3.0, 4.0, 0.0), Pose(0.0, 0.0, 0.0)) == 5.0
    assert temporal_error(120.0, 300.0) == 180.0

    gt_pose = Pose(0.0, 0.0, 0.0)
    answers = {
        "s-inside": AnswerAction(text="a", pose=Pose(24.9, 0.0, 0.0)),
        "s-gate": AnswerAction(text="b", pose=Pose(25.0, 0.0, 0.0)),
        "s-outside": AnswerAction(text="c", pose=Pose(25.1, 0.0, 0.0)),
        "t-gate": AnswerAction(text="d", time=480.0),
        "t-outside": AnswerAction(text="e", time=481.0),
    }
    cfg = Config(embedding_dim=16)
    router = Router(
        MemoryGraph(cfg),
        CaptionStore(cfg),
        HashProvider(0, 16),
        ScriptedPlanner({q: [a] for q, a in answers.items()}),
        cfg=cfg,
    )
    report_out = evaluate(
        router,
        [
            QAItem("s-inside", "spatial", gt_pose=gt_pose),
            QAItem("s-gate", "spatial", gt_pose=gt_pose),
            QAItem("s-outside", "spatial", gt_pose=gt_pose),
            QAItem("t-gate", "temporal", gt_time=300.0),
            QAItem("t-outside", "temporal", gt_time=300.0),
        ],
    )
    flags = [r.correct for r in report_out.rows]
    assert flags == [True, True, False, True, False]
    assert report_out.positional_accuracy == pytest.approx(2 / 3)
    assert report_out.temporal_accuracy == pytest.approx(1 / 2)
    report("criterion 4: 3-4-5 exactness and inclusive 25 m / 180 s gates")


# ----------------------------------------------------------------------
# criterion 5: fallback accounting
# ----------------------------------------------------------------------


def test_criterion_5_fallback_accounting():
    cfg = Config(embedding_dim=16)
    provider = HashProvider(seed=1, dim=16)
    graph = MemoryGraph(cfg)
    captions = CaptionStore(cfg)
    captions.insert_caption(
        Observation(
            frame_id="c0", pose=Pose(0.0, 0.0), time=1.0,
            caption=Caption("a scene", provider.embed("a scene")),
        )
    )
    scripts = {}
    for i in range(30):
        if i < 28:
            scripts[f"q{i:02d}"] = [
                CallTool("captions_text", {"query": "scene", "k": 1}),
                AnswerAction(text="from captions"),
            ]
        else:
            scripts[f"q{i:02d}"] = [
                CallTool("t_semantic", {"query": "scene", "k": 1}),
                AnswerAction(text="from graph"),
            ]
    router = Router(graph, captions, provider, ScriptedPlanner(scripts), cfg=cfg)
    for q in sorted(scripts):
        router.answer_query(q)
    assert router.stats.n_queries == 30
    assert router.stats.n_vector_calls == 28
    assert fallback_percentage(router.stats) == 28 / 30
    # hand count from the recorded traces agrees exactly
    hand_count = sum(
        1 for trace in router.stats.traces if any(t.startswith("captions") for t in trace)
    )
    assert hand_count / len(router.stats.traces) == fallback_percentage(router.stats)
    report("criterion 5: scripted 28-of-30 trace yields fallback 28/30 exactly")


# ----------------------------------------------------------------------
# criterion 6: end-to-end synthetic accuracy ceiling
# ----------------------------------------------------------------------


def build_session_state(records, cfg, provider):
    state = SessionState.new(cfg, provider)
    for record in records:
        state.ingest(record_to_observation(record, cfg, provider))
    return state


def test_criterion_6_synthetic_accuracy_ceiling():
    t0 = time.perf_counter()
    cfg = Config()  # default 384-dim embeddings, paper-scale thresholds

    # noise-free session: 20 entities, 10-minute tour, full coverage
    world = grid_tour_world(list(ENTITY_LABELS), spacing=30.0, duration=600.0)
    records, items = generate_synthetic_session(0, world, cfg)
    assert records[-1].t == 600.0
    provider = HashProvider(seed=6, dim=cfg.embedding_dim)
    state = build_session_state(records, cfg, provider)
    assert state.graph.node_count() == len(ENTITY_LABELS)
    router = Router(
        state.graph, state.captions, provider,
        RuleBasedPlanner(k=cfg.default_k), cfg=cfg, stats=state.stats,
    )
    assert len(items) == 2 * len(ENTITY_LABELS)
    result = evaluate(router, items)
    assert result.positional_accuracy == 1.0
    assert result.temporal_accuracy == 1.0

    # synonym noise: per-sighting renames still dedup to one node each
    table, synonyms = build_synonym_fixture(
        list(ENTITY_LABELS), alternatives=3, dim=cfg.embedding_dim, seed=66
    )
    noisy_world = grid_tour_world(
        list(ENTITY_LABELS), spacing=30.0, duration=600.0, synonyms=synonyms
    )
    noisy_records, _ = generate_synthetic_session(1, noisy_world, cfg)
    fixture_provider = FixtureProvider(
        table, fallback=HashProvider(seed=6, dim=cfg.embedding_dim)
    )
    noisy_state = build_session_state(noisy_records, cfg, fixture_provider)
    assert noisy_state.graph.node_count() == len(ENTITY_LABELS)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"synthetic ceiling took {elapsed:.1f} s"
    report(
        "criterion 6: noise-free accuracy 1.0/1.0 and synonym-noise node "
        f"count {len(ENTITY_LABELS)} ({elapsed:.1f} s)"
    )


# ----------------------------------------------------------------------
# criterion 7: latency budget
# ----------------------------------------------------------------------


def test_criterion_7_latency_budget():
    cfg = Config()  # 384-dim
    graph = random_graph(10_000, cfg, seed=7)
    provider = HashProvider(seed=7, dim=cfg.embedding_dim)
    rng = np.random.default_rng(7)

    def sample(fn, n=101):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return np.median(times), np.percentile(times, 99)

    queries = [f"latency probe {i}" for i in range(101)]
    for q in queries:
        provider.embed(q)  # embedding cost is per unique text; pre-warm cache
    it = iter(queries * 2)
    med_s, p99_s = sample(lambda: t_semantic(graph, provider, next(it), 10))
    points = rng.uniform(-80, 80, size=(300, 3))
    ip = iter(points.tolist() * 2)
    med_p, p99_p = sample(lambda: t_position(graph, *next(ip), 10))
    im = iter(list(range(0, 60)) * 4)
    med_t, p99_t = sample(lambda: t_time(graph, 0, next(im), 30, 10))
    for name, med, p99 in (
        ("t_semantic", med_s, p99_s),
        ("t_position", med_p, p99_p),
        ("t_time", med_t, p99_t),
    ):
        assert med < 0.050, f"{name} median {med * 1000:.2f} ms exceeds 50 ms"
        assert p99 < 0.200, f"{name} p99 {p99 * 1000:.2f} ms exceeds 200 ms"
    report(
        "criterion 7: 10k-node tool latencies median "
        f"{med_s * 1000:.2f}/{med_p * 1000:.2f}/{med_t * 1000:.2f} ms, p99 "
        f"{p99_s * 1000:.2f}/{p99_p * 1000:.2f}/{p99_t * 1000:.2f} ms"
    )


# ----------------------------------------------------------------------
# criterion 8: persistence round trip
# ----------------------------------------------------------------------


def test_criterion_8_persistence_round_trip(tmp_path):
    cfg = Config(embedding_dim=64)
    provider = HashProvider(seed=8, dim=64)
    state = SessionState.new(cfg, provider)
    state.graph = random_graph(300, cfg, seed=8, duplicate_every=23)
    rng = np.random.default_rng(8)
    for i in range(150):
        state.captions.insert_caption(
            Observation(
                frame_id=f"c{i}", pose=Pose(*rng.uniform(-30, 30, size=3)),
                time=float(i), caption=Caption(f"scene {i}", provider.embed(f"scene {i}")),
            )
        )
    state.stats = SessionStats(n_queries=2, n_vector_calls=1,
                               latencies=[0.01, 0.02], traces=[(), ()])

    def transcript(s: SessionState):
        out = []
        qrng = np.random.default_rng(88)
        for i in range(100):
            k = int(qrng.integers(1, 12))
            out.append([(h.node_id, h.score) for h in t_semantic(s.graph, s.provider, f"p{i}", k)])
            x, y, z = qrng.uniform(-40, 40, size=3)
            out.append([(h.node_id, h.score) for h in t_position(s.graph, x, y, z, k)])
            out.append([(h.node_id, h.score) for h in t_time(s.graph, 0, i % 60, 0, k)])
            q = s.provider.embed(f"cap {i}")
            out.append([(h.record_id, h.score) for h in s.captions.query_text(q, k)])
            out.append([(h.record_id, h.score) for h in s.captions.query_position(Pose(x, y, z), k)])
            out.append([(h.record_id, h.score) for h in s.captions.query_time(float(i * 3), k)])
        return out

    before = transcript(state)
    path = tmp_path / "session.lgrsnap"
    save_snapshot(state, path)
    loaded = load_snapshot(path)
    assert transcript(loaded) == before
    assert loaded.stats == state.stats

    # corruption refuses to load; no partial state escapes
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    bad_path = tmp_path / "corrupt.lgrsnap"
    bad_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError):
        load_snapshot(bad_path)
    truncated_path = tmp_path / "short.lgrsnap"
    truncated_path.write_bytes(path.read_bytes()[:-33])
    with pytest.raises(SnapshotError):
        load_snapshot(truncated_path)
    report("criterion 8: save/load keeps 600 query results identical; corruption refused")


# ----------------------------------------------------------------------
# criterion 9: subsampling arithmetic and determinism
# ----------------------------------------------------------------------


def test_criterion_9_subsampling_and_determinism(tmp_path):
    from lgr import LogRecord, load_log, subsample

    # 10 Hz for 10 s at period 2.0 keeps exactly 6 records
    records = [
        LogRecord(frame_id=f"f{i}", t=i / 10, pose=Pose(0.0, 0.0), labels=("cup",),
                  caption="a cup")
        for i in range(101)
    ]
    assert len(subsample(records, 2.0)) == 6
    log_path = tmp_path / "dense.jsonl"
    write_log(records, log_path)
    cfg = Config(embedding_dim=32)
    provider = HashProvider(seed=9, dim=32)
    assert len(list(load_log(log_path, cfg, provider))) == 6

    # same seed: byte-identical synthetic logs and snapshots
    world = grid_tour_world(list(ENTITY_LABELS[:6]), spacing=30.0, duration=120.0)
    paths = []
    for run in ("a", "b"):
        recs, _ = generate_synthetic_session(42, world, cfg)
        lp = tmp_path / f"log-{run}.jsonl"
        write_log(recs, lp)
        state = build_session_state(recs, cfg, HashProvider(seed=9, dim=32))
        sp = tmp_path / f"snap-{run}.lgrsnap"
        save_snapshot(state, sp)
        paths.append((lp, sp))
    (log_a, snap_a), (log_b, snap_b) = paths
    assert log_a.read_bytes() == log_b.read_bytes()
    assert snap_a.read_bytes() == snap_b.read_bytes()
    report("criterion 9: 10 Hz/10 s subsamples to 6; logs and snapshots byte-identical")
