from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import DIM, random_graph, unit_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from lgr import (
    Caption,
    Config,
    EntityNode,
    Label,
    MemoryGraph,
    Observation,
    Pose,
    RetrievalHit,
)
from lgr.columns import Columns
from lgr.embedding import HashProvider, l2_normalize
from test_session_machine import EDGE


def node_at(node_id: int, emb: np.ndarray, pose: Pose, t: float = 0.0) -> EntityNode:
    return EntityNode(
        node_id=node_id,
        label_text=f"n{node_id}",
        embedding=emb,
        pose=pose,
        first_seen=t,
        last_seen=t,
        obs_count=1,
    )


def obs_with(labels, pose=Pose(0.0, 0.0), t=0.0, frame="f") -> Observation:
    return Observation(frame_id=frame, pose=pose, time=t, labels=tuple(labels))


@pytest.fixture
def prov() -> HashProvider:
    return HashProvider(seed=21, dim=DIM)


class TestUpdateRule:
    """One node's update, read back after each of its sightings is ingested."""

    @staticmethod
    def sighted(cfg, prov, *sightings):
        """The graph after one "cup" sighting per (pose, time), and the label
        embedding every sighting carried."""
        g = MemoryGraph(cfg)
        emb = prov.embed("cup")
        for i, (pose, t) in enumerate(sightings):
            g.ingest_observation(obs_with([Label("cup", emb)], pose=pose, t=t, frame=f"f{i}"))
        assert g.node_count() == 1
        return g, emb

    def test_mean_of_two_points(self, cfg64, prov):
        g, _ = self.sighted(
            cfg64, prov, (Pose(0.0, 0.0, 0.0, 0.0), 0.0), (Pose(2.0, 0.0, 0.0, 1.0), 5.0)
        )
        out = g.get_node(1)
        assert (out.pose.x, out.pose.y, out.pose.z) == (1.0, 0.0, 0.0)
        assert out.obs_count == 2
        assert out.last_seen == 5.0

    def test_equal_point_is_fixed_point(self, cfg64, prov):
        p = Pose(1.0, 1.0, 0.0)
        g, _ = self.sighted(cfg64, prov, (p, 0.0), (p, 1.0), (p, 2.0))
        node = g.get_node(1)
        assert (node.pose.x, node.pose.y, node.pose.z) == (1.0, 1.0, 0.0)
        assert node.obs_count == 3

    def test_yaw_preserved(self, cfg64, prov):
        g, _ = self.sighted(
            cfg64, prov, (Pose(0.0, 0.0, 0.0, 0.5), 0.0), (Pose(3.0, 3.0, 0.0, -2.0), 9.0)
        )
        assert g.get_node(1).pose.yaw == 0.5

    def test_embedding_unchanged(self, cfg64, prov):
        g, emb = self.sighted(cfg64, prov, (Pose(0.0, 0.0), 0.0), (Pose(1.0, 1.0), 1.0))
        out = g.get_node(1)
        assert out.obs_count == 2
        assert out.embedding.tobytes() == emb.tobytes()
        assert not out.embedding.flags.writeable

    def test_last_seen_never_rewinds(self, cfg64, prov):
        g, _ = self.sighted(cfg64, prov, (Pose(0.0, 0.0), 10.0), (Pose(1.0, 0.0), 4.0))
        out = g.get_node(1)
        assert out.obs_count == 2
        assert out.last_seen == 10.0

    def test_non_finite_pose_rejected(self, cfg64, prov):
        g, emb = self.sighted(cfg64, prov, (Pose(0.0, 0.0), 0.0))
        before = g.get_node(1)
        with pytest.raises(ValueError):
            g.ingest_observation(
                obs_with([Label("cup", emb)], pose=Pose(float("nan"), 0.0), t=1.0)
            )
        assert g.all_nodes() == [before]


class TestAccessors:
    def test_empty_graph(self, cfg64):
        g = MemoryGraph(cfg64)
        assert g.node_count() == 0
        assert g.all_nodes() == []
        with pytest.raises(KeyError, match="no such node"):
            g.get_node(1)

    def test_count_after_creation(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        g.ingest_observation(obs_with([Label("cup", prov.embed("cup"))]))
        assert g.node_count() == 1
        assert len(g) == 1
        assert g.get_node(1).label_text == "cup"


class TestFindMatches:
    def test_empty_graph_matches_nothing(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        assert g.find_matches(prov.embed("cup"), Pose(0.0, 0.0)) == []

    def test_both_gates_pass(self, cfg64, prov):
        emb = prov.embed("cup")
        g = MemoryGraph.restore(cfg64, [node_at(1, emb, Pose(0.0, 0.0, 0.0))])
        assert g.find_matches(emb, Pose(3.0, 0.0, 0.0)) == [1]

    def test_distance_gate_is_inclusive(self, cfg64, prov):
        emb = prov.embed("cup")
        g = MemoryGraph.restore(cfg64, [node_at(1, emb, Pose(0.0, 0.0, 0.0))])
        assert g.find_matches(emb, Pose(5.0, 0.0, 0.0)) == [1]
        assert g.find_matches(emb, Pose(5.0 + 1e-9, 0.0, 0.0)) == []

    def test_similarity_gate_is_strict(self, prov):
        # delta_e = 1.0 means even an identical embedding (sim ~ 1.0) fails
        cfg = Config(embedding_dim=DIM, delta_e=1.0)
        emb = prov.embed("cup")
        g = MemoryGraph.restore(cfg, [node_at(1, emb, Pose(0.0, 0.0))])
        assert g.find_matches(emb, Pose(0.0, 0.0)) == []

    def test_dimension_mismatch_raises(self, cfg64):
        g = MemoryGraph(cfg64)
        with pytest.raises(ValueError, match="dimension mismatch"):
            g.find_matches(np.ones(DIM + 1, dtype=np.float32), Pose(0.0, 0.0))

    def test_matches_random_instances_against_naive_scan(self, cfg64):
        rng = np.random.default_rng(42)
        emb = unit_rows(50, DIM, seed=7)
        nodes = [
            node_at(i + 1, emb[i % 25], Pose(*rng.uniform(-12, 12, size=3)))
            for i in range(50)
        ]
        g = MemoryGraph.restore(cfg64, nodes)
        naive_view = [
            (n.node_id, n.embedding, (n.pose.x, n.pose.y, n.pose.z)) for n in nodes
        ]
        queries = unit_rows(100, DIM, seed=8)
        for qi in range(100):
            q = queries[qi % 30]  # reuse node-ish embeddings for real hits
            if qi % 3 == 0:
                q = emb[qi % 25]
            p = rng.uniform(-12, 12, size=3)
            got = g.find_matches(q, Pose(*p))
            want = oracles.find_matches_naive(
                naive_view, q, tuple(p), cfg64.delta_e, cfg64.delta_p
            )
            assert got == want


# delta_p and the Pythagorean triple that, scaled by a power of two, ends
# exactly on it; nodes sit on a grid 32 m apart, so a node's sightings reach
# no other cell, and nodes that ingest merges keep their cell exactly
EDGE_TRIPLES = {2.5: (3, 4, 5), 5.0: (3, 4, 5), 6.5: (5, 12, 13), 13.0: (5, 12, 13)}
CELLS = (-32.0, 0.0, 32.0)


def edge_sightings(cell: tuple, delta_p: float) -> list[tuple]:
    """Positions exactly ``delta_p`` from ``cell``, along each axis and
    along the scaled triple in each plane, with every sign; and along each
    axis one ulp inside and one ulp past that edge. Every difference from
    ``cell`` is exact, and so is its length in both the engine's
    arithmetic and the oracle's (``sqrt(fl(x*x)) == |x|``)."""
    a, b, c = EDGE_TRIPLES[delta_p]
    a, b = a * delta_p / c, b * delta_p / c
    out = set()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for u, v in ((delta_p, 0.0), (a, b), (b, a)):
            for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = list(cell)
                p[i], p[j] = p[i] + su * u, p[j] + sv * v
                out.add(tuple(p))
        for edge in (cell[i] + delta_p, cell[i] - delta_p):
            for toward in (-np.inf, np.inf):
                p = list(cell)
                p[i] = float(np.nextafter(edge, toward))
                out.add(tuple(p))
    return sorted(out)


@settings(max_examples=25, deadline=None)
@given(delta_p=st.sampled_from(sorted(EDGE_TRIPLES)), data=st.data())
def test_gate_at_its_exact_edges_equals_the_oracle(delta_p, data):
    """Labels exactly at delta_e and one step either side (``EDGE``),
    sighted exactly at delta_p and one ulp either side: the gate of a
    restored graph, and of a graph after each frame that builds it by
    ingest (so repeat queries take the memo's incremental path), equals
    ``find_matches_naive``."""
    cfg = Config(embedding_dim=len(EDGE["mug"]), delta_e=0.75, delta_p=delta_p)
    vectors = {text: np.array(v, np.float32) for text, v in EDGE.items()}
    label, cell = st.sampled_from(sorted(EDGE)), st.tuples(*[st.sampled_from(CELLS)] * 3)
    nodes = data.draw(st.lists(st.tuples(label, cell), min_size=1, max_size=5))
    queries = [(vectors[text], Pose(*p)) for c in sorted({c for _, c in nodes})
               for p in edge_sightings(c, delta_p) for text in sorted(EDGE)]

    def check(g: MemoryGraph) -> None:
        view = [(n.node_id, n.embedding, n.pose.position()) for n in g.all_nodes()]
        for e, pose in queries:
            want = oracles.find_matches_naive(view, e, pose.position(), cfg.delta_e, delta_p)
            assert g.find_matches(e, pose) == want

    check(MemoryGraph.restore(cfg, [
        EntityNode(i + 1, text, vectors[text], Pose(*c), 0.0, 0.0, 1)
        for i, (text, c) in enumerate(nodes)
    ]))
    g = MemoryGraph(cfg)
    for i, (text, c) in enumerate(nodes):
        g.ingest_observation(obs_with([Label(text, vectors[text])], pose=Pose(*c), t=float(i)))
        check(g)
    assert {(n.pose.x, n.pose.y, n.pose.z) for n in g.all_nodes()} <= {c for _, c in nodes}


class TestIngest:
    def test_two_dissimilar_labels_create_two_nodes(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        report = g.ingest_observation(
            obs_with([Label("chair", prov.embed("chair")), Label("table", prov.embed("table"))])
        )
        assert len(report.created) == 2
        assert report.updated == ()
        assert report.labels_processed == 2

    def test_multi_instance_k3_h1(self, cfg64, prov):
        # one existing cup node; a frame with three cup labels updates it
        # and creates two more
        emb = prov.embed("cup")
        g = MemoryGraph.restore(cfg64, [node_at(1, emb, Pose(0.0, 0.0, 0.0))])
        report = g.ingest_observation(
            obs_with([Label("cup", emb)] * 3, pose=Pose(1.0, 0.0, 0.0), t=4.0)
        )
        assert report.updated == (1,)
        assert len(report.created) == 2
        assert g.node_count() == 3

    def test_k1_h3_updates_only_nearest(self, cfg64, prov):
        emb = prov.embed("cup")
        nodes = [
            node_at(1, emb, Pose(3.0, 0.0, 0.0)),
            node_at(2, emb, Pose(1.0, 0.0, 0.0)),
            node_at(3, emb, Pose(2.0, 0.0, 0.0)),
        ]
        g = MemoryGraph.restore(cfg64, nodes)
        report = g.ingest_observation(
            obs_with([Label("cup", emb)], pose=Pose(0.0, 0.0, 0.0), t=1.0)
        )
        assert report.updated == (2,)  # distance 1 beats 2 and 3
        assert report.created == ()
        assert g.get_node(2).obs_count == 2
        assert g.get_node(1).obs_count == 1

    def test_one_label_is_one_group(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        assert g._group_labels([Label("cup", prov.embed("cup"))]) == [[0]]

    def test_same_frame_group_multiplicity(self, cfg64, prov):
        # identical label twice in one frame is one group with k=2
        g = MemoryGraph(cfg64)
        emb = prov.embed("cup")
        report = g.ingest_observation(obs_with([Label("cup", emb), Label("cup", emb)]))
        assert len(report.created) == 2

    def test_reingest_identical_observation_creates_nothing(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        obs = obs_with(
            [Label("cup", prov.embed("cup")), Label("door", prov.embed("door"))],
            pose=Pose(2.0, 3.0, 0.0),
            t=1.0,
        )
        first = g.ingest_observation(obs)
        second = g.ingest_observation(obs)
        assert len(first.created) == 2
        assert second.created == ()
        assert set(second.updated) == set(first.created)

    def test_mean_convergence_for_stationary_entity(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        emb = prov.embed("bench")
        rng = np.random.default_rng(0)
        positions = rng.uniform(-1.5, 1.5, size=(100, 3))
        for i, p in enumerate(positions):
            g.ingest_observation(
                obs_with([Label("bench", emb)], pose=Pose(*p), t=float(i))
            )
        assert g.node_count() == 1
        node = g.get_node(1)
        mean = positions.mean(axis=0)
        assert abs(node.pose.x - mean[0]) <= 1e-6
        assert abs(node.pose.y - mean[1]) <= 1e-6
        assert abs(node.pose.z - mean[2]) <= 1e-6
        assert node.obs_count == 100
        assert node.last_seen == 99.0

    def test_separation_beyond_radius(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        emb = prov.embed("door")
        g.ingest_observation(obs_with([Label("door", emb)], pose=Pose(0.0, 0.0), t=0.0))
        g.ingest_observation(
            obs_with([Label("door", emb)], pose=Pose(2 * cfg64.delta_p, 0.0), t=1.0)
        )
        assert g.node_count() == 2

    def test_synonym_group_dedups_within_frame(self, cfg64):
        # two near-identical labels in one frame form one group (k=2)
        base = HashProvider(seed=2, dim=DIM).embed("cup")
        tilt = HashProvider(seed=2, dim=DIM).embed("cup-tilt")
        near = l2_normalize(base.astype(np.float64) + 0.2 * tilt.astype(np.float64))
        g = MemoryGraph(Config(embedding_dim=DIM))
        report = g.ingest_observation(obs_with([Label("cup", base), Label("mug", near)]))
        assert len(report.created) == 2  # k=2, h=0: two instances of one entity
        g2 = MemoryGraph(Config(embedding_dim=DIM))
        g2.ingest_observation(obs_with([Label("cup", base)], t=0.0))
        report2 = g2.ingest_observation(obs_with([Label("mug", near)], t=1.0))
        assert report2.created == () and report2.updated == (1,)

    def test_one_update_per_node_per_frame(self, cfg64, prov):
        # two groups in one frame cannot both claim the same node; the
        # earlier group wins and the later one creates instead
        emb = prov.embed("cup")
        g = MemoryGraph.restore(cfg64, [node_at(1, emb, Pose(0.0, 0.0))])
        report = g.ingest_observation(
            obs_with([Label("cup", emb), Label("cup", emb)], pose=Pose(1.0, 0.0), t=1.0)
        )
        # one group of k=2 here; updated once, created once
        assert report.updated == (1,)
        assert len(report.created) == 1
        assert g.get_node(1).obs_count == 2

    def test_earlier_group_claims_contested_node(self, cfg64, prov):
        # craft two labels that are dissimilar to each other yet both
        # similar to one stored node; the first group claims the node,
        # the second must create instead
        n = prov.embed("anchor").astype(np.float64)
        u = prov.embed("tilt-u").astype(np.float64)
        v = prov.embed("tilt-v").astype(np.float64)
        a = l2_normalize(n + 0.7 * u)
        b = l2_normalize(n + 0.7 * (v - u))
        sim_an = float(np.dot(a.astype(np.float64), n))
        sim_bn = float(np.dot(b.astype(np.float64), n))
        sim_ab = float(np.dot(a.astype(np.float64), b.astype(np.float64)))
        assert sim_an > cfg64.delta_e and sim_bn > cfg64.delta_e
        assert sim_ab <= cfg64.delta_e, "labels must land in different groups"
        g = MemoryGraph.restore(
            cfg64, [node_at(1, prov.embed("anchor"), Pose(0.0, 0.0))]
        )
        report = g.ingest_observation(
            obs_with([Label("a", a), Label("b", b)], pose=Pose(1.0, 0.0), t=1.0)
        )
        assert report.updated == (1,)
        assert len(report.created) == 1
        assert g.get_node(1).obs_count == 2

    @pytest.mark.parametrize(
        "fault",
        [
            dict(time=-1.0),
            dict(labels=(Label("x", l2_normalize(np.ones(DIM + 1))),)),
            dict(labels=(Label("x", HashProvider(0, DIM).embed("x")), Label("y", np.eye(DIM + 1)[0]))),
            dict(caption=Caption("a cup", l2_normalize(np.ones(DIM - 1)))),
        ],
        ids=["negative-time", "wide-label", "wide-second-label", "narrow-caption"],
    )
    def test_invalid_observation_rejected(self, cfg64, fault):
        g = MemoryGraph(cfg64)
        fields = dict(
            frame_id="f",
            pose=Pose(0.0, 0.0),
            time=1.0,
            labels=(Label("x", HashProvider(0, DIM).embed("x")),),
        )
        fields.update(fault)
        with pytest.raises(ValueError, match="invalid observation"):
            g.ingest_observation(Observation(**fields))
        assert g.node_count() == 0

    def test_created_visible_atomically_with_edges(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        report = g.ingest_observation(
            obs_with(
                [Label("cup", prov.embed("cup")), Label("door", prov.embed("door"))]
            )
        )
        assert report.created == (1, 2)
        assert [n.label_text for n in g.all_nodes()] == ["cup", "door"]

    def test_label_free_observation_is_a_noop(self, cfg64):
        g = MemoryGraph(cfg64)
        report = g.ingest_observation(obs_with([]))
        assert report == type(report)((), (), 0)
        assert g.node_count() == 0

    def test_last_seen_monotone_under_ordered_log(self, cfg64, prov):
        g = MemoryGraph(cfg64)
        emb = prov.embed("cup")
        rng = np.random.default_rng(6)
        seen = 0.0
        for i in range(40):
            p = rng.uniform(-1.0, 1.0, size=3)
            g.ingest_observation(
                obs_with([Label("cup", emb)], pose=Pose(*p), t=float(i))
            )
            node = g.get_node(1)
            assert node.last_seen >= seen
            seen = node.last_seen


class TestConcurrentReaders:
    def test_readers_see_whole_frames_only(self, cfg64):
        # every frame creates a marker pair; a reader catching a torn
        # frame would observe an odd node count
        import threading

        prov = HashProvider(seed=77, dim=DIM)
        g = MemoryGraph(cfg64)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                if len(g.all_nodes()) % 2:
                    torn.append(True)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(150):
            pose = Pose(100.0 * i, 0.0)  # far apart: every frame creates
            g.ingest_observation(
                obs_with(
                    [
                        Label(f"a-{i}", prov.embed(f"a-{i}")),
                        Label(f"b-{i}", prov.embed(f"b-{i}")),
                    ],
                    pose=pose,
                    t=float(i),
                )
            )
        stop.set()
        for t in threads:
            t.join()
        assert not torn
        assert g.node_count() == 300


class TestRestore:
    def test_round_trip_node_state(self, cfg64):
        g = random_graph(20, cfg64, seed=5)
        clone = MemoryGraph.restore(cfg64, g.all_nodes())
        assert clone.node_count() == 20
        assert clone.next_id == g.next_id
        for a, b in zip(g.all_nodes(), clone.all_nodes()):
            assert a.node_id == b.node_id
            assert np.array_equal(a.embedding, b.embedding)

    def test_duplicate_ids_rejected(self, cfg64, prov):
        n = node_at(1, prov.embed("x"), Pose(0.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            MemoryGraph.restore(cfg64, [n, n])

    def test_next_id_at_or_below_a_stored_id_rejected(self, cfg64, prov):
        # an accepted next_id=2 re-issued id 5 on the fourth new node
        node = node_at(5, prov.embed("a"), Pose(0.0, 0.0))
        for bad in (2, 5, 0):
            with pytest.raises(ValueError, match="next_id"):
                MemoryGraph.restore(cfg64, [node], next_id=bad)
        with pytest.raises(ValueError, match="next_id"):
            MemoryGraph.restore(cfg64, [], next_id=0)
        g = MemoryGraph.restore(cfg64, [node], next_id=6)
        for i in range(4):
            g.ingest_observation(
                obs_with([Label(f"b{i}", prov.embed(f"b{i}"))], pose=Pose(100.0 * (i + 1), 0.0))
            )
        assert [n.node_id for n in g.all_nodes()] == [5, 6, 7, 8, 9]
        assert g.get_node(5) == node
        (top,) = g.hits(Columns.top_cosine, node.embedding, 1, RetrievalHit)
        assert g.get_node(top.node_id) == node
