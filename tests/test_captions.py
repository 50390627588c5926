from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import DIM, unit_rows
from lgr import Caption, CaptionStore, Config, Observation, Pose


def obs_with_caption(text: str, emb, pose=Pose(0.0, 0.0), t=0.0) -> Observation:
    return Observation(
        frame_id="f",
        pose=pose,
        time=t,
        caption=Caption(text, emb) if text else None,
    )


def filled_store(cfg: Config, n: int, seed: int = 3) -> CaptionStore:
    rng = np.random.default_rng(seed)
    emb = unit_rows(n, cfg.embedding_dim, seed)
    store = CaptionStore(cfg)
    for i in range(n):
        store.insert_caption(
            obs_with_caption(
                f"scene {i}",
                emb[i],
                pose=Pose(*rng.uniform(-40, 40, size=3)),
                t=float(rng.uniform(0, 1200)),
            )
        )
    return store


class TestInsert:
    def test_ids_count_from_one(self, cfg64, provider64):
        store = CaptionStore(cfg64)
        first = store.insert_caption(obs_with_caption("a", provider64.embed("a")))
        second = store.insert_caption(obs_with_caption("b", provider64.embed("b")))
        assert (first, second) == (1, 2)
        assert store.record_count() == 2

    def test_empty_caption_rejected(self, cfg64):
        store = CaptionStore(cfg64)
        with pytest.raises(ValueError, match="no caption"):
            store.insert_caption(obs_with_caption("", None))

    def test_get_record(self, cfg64, provider64):
        store = CaptionStore(cfg64)
        rid = store.insert_caption(obs_with_caption("hall", provider64.embed("hall")))
        assert store.get_record(rid).text == "hall"
        with pytest.raises(KeyError):
            store.get_record(99)


class TestQueries:
    def test_single_record_always_returned(self, cfg64, provider64):
        store = CaptionStore(cfg64)
        store.insert_caption(obs_with_caption("only", provider64.embed("only")))
        for hits in (
            store.query_text(provider64.embed("unrelated"), 5),
            store.query_position(Pose(9.0, 9.0), 5),
            store.query_time(500.0, 5),
        ):
            assert [h.record_id for h in hits] == [1]

    def test_own_embedding_ranks_first_with_unit_score(self, cfg64, provider64):
        store = CaptionStore(cfg64)
        for i in range(5):
            store.insert_caption(obs_with_caption(f"s{i}", provider64.embed(f"s{i}")))
        hits = store.query_text(store.get_record(3).embedding, 3)
        assert hits[0].record_id == 3
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_zero_rejected(self, cfg64):
        store = CaptionStore(cfg64)
        with pytest.raises(ValueError, match="k must be"):
            store.query_time(0.0, 0)

    def test_rankings_match_full_scan_oracle(self, cfg64):
        store = filled_store(cfg64, 120)
        records = store.all_records()
        rng = np.random.default_rng(9)
        queries = unit_rows(30, DIM, seed=10)
        for i in range(30):
            k = int(rng.integers(1, 15))
            got = store.query_text(queries[i], k)
            want = oracles.rank_semantic(
                [(r.record_id, r.embedding) for r in records], queries[i], k
            )
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)
            p = rng.uniform(-40, 40, size=3)
            got = store.query_position(Pose(*p), k)
            want = oracles.rank_position(
                [(r.record_id, (r.pose.x, r.pose.y, r.pose.z)) for r in records],
                tuple(p),
                k,
            )
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)
            t = float(rng.uniform(0, 1200))
            got = store.query_time(t, k)
            want = oracles.rank_time([(r.record_id, r.time) for r in records], t, k)
            oracles.assert_ranking([(h.record_id, h.score) for h in got], want)

    def test_top_k_prefix_stability(self, cfg64):
        store = filled_store(cfg64, 60)
        q = unit_rows(1, DIM, seed=11)[0]
        for k in (1, 3, 7, 20):
            small = store.query_text(q, k)
            big = store.query_text(q, k + 5)
            assert [h.record_id for h in big[:k]] == [h.record_id for h in small]

    def test_insertion_order_independence(self, cfg64):
        rng = np.random.default_rng(14)
        emb = unit_rows(25, DIM, seed=14)
        rows = [
            (f"scene {i}", emb[i], Pose(*rng.uniform(-10, 10, size=3)), float(i))
            for i in range(25)
        ]
        a = CaptionStore(cfg64)
        for text, e, pose, t in rows:
            a.insert_caption(obs_with_caption(text, e, pose, t))
        b = CaptionStore(cfg64)
        for text, e, pose, t in reversed(rows):
            b.insert_caption(obs_with_caption(text, e, pose, t))
        q = unit_rows(1, DIM, seed=15)[0]
        got_a = [(h.score, h.text) for h in a.query_text(q, 25)]
        got_b = [(h.score, h.text) for h in b.query_text(q, 25)]
        assert got_a == got_b

    def test_restore_rejects_next_id_at_or_below_a_stored_id(self, cfg64):
        records = filled_store(cfg64, 3).all_records()
        for bad in (0, 2, 3):
            with pytest.raises(ValueError, match="next_id"):
                CaptionStore.restore(cfg64, records, next_id=bad)
        with pytest.raises(ValueError, match="next_id"):
            CaptionStore.restore(cfg64, [], next_id=0)
        assert CaptionStore.restore(cfg64, records, next_id=9).next_id == 9

    def test_restore_round_trip(self, cfg64):
        store = filled_store(cfg64, 10)
        clone = CaptionStore.restore(cfg64, store.all_records())
        q = unit_rows(1, DIM, seed=16)[0]
        assert [h.record_id for h in clone.query_text(q, 10)] == [
            h.record_id for h in store.query_text(q, 10)
        ]
        assert clone.next_id == store.next_id
