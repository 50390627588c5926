from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import shutil
import stat
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lgr.model
from conftest import DIM, random_graph, unit_rows
from lgr import (
    Caption,
    CaptionRecord,
    CaptionStore,
    Config,
    EntityNode,
    Label,
    MemoryGraph,
    FixtureProvider,
    HashProvider,
    Observation,
    Pose,
    SessionState,
    SessionStats,
    SnapshotError,
    load_log,
    load_snapshot,
    save_snapshot,
    t_position,
    t_semantic,
    t_time,
    write_log,
)
from lgr.cli import main
from lgr.embedding import l2_normalize
from lgr.logio import decode_vector, encode_vector
from lgr.snapshot import FORMAT_VERSION, provider_from_spec, provider_to_spec
from test_session_machine import check_store
from worlds import generate_synthetic_session, grid_tour_world


def build_state(seed: int = 17, n_nodes: int = 40, n_captions: int = 25) -> SessionState:
    cfg = Config(embedding_dim=DIM)
    provider = HashProvider(seed=seed, dim=DIM)
    state = SessionState.new(cfg, provider)
    state.graph = random_graph(n_nodes, cfg, seed=seed)
    state.graph.ingest_observation(  # two labels created in one frame
        Observation(
            frame_id="pair",
            pose=Pose(500.0, 500.0),
            time=1.0,
            labels=(
                Label("left marker", provider.embed("left marker")),
                Label("right marker", provider.embed("right marker")),
            ),
        )
    )
    rng = np.random.default_rng(seed)
    for i in range(n_captions):
        state.captions.insert_caption(
            Observation(
                frame_id=f"c{i}",
                pose=Pose(*rng.uniform(-20, 20, size=3)),
                time=float(i * 2.0),
                caption=Caption(f"scene {i}", provider.embed(f"scene {i}")),
            )
        )
    state.stats = SessionStats(
        n_queries=4, n_vector_calls=1, latencies=[0.1] * 4,
        traces=[("t_semantic",)] * 3 + [("captions_text",)],
    )
    return state


def query_fingerprint(state: SessionState, n: int = 60):
    """Deterministic transcript of many queries across all six tools."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(n):
        k = int(rng.integers(1, 9))
        out.append(
            [
                (h.node_id, h.score)
                for h in t_semantic(state.graph, state.provider, f"probe {i}", k)
            ]
        )
        p = rng.uniform(-30, 30, size=3)
        out.append([(h.node_id, h.score) for h in t_position(state.graph, *p, k)])
        out.append(
            [(h.node_id, h.score) for h in t_time(state.graph, 0, int(rng.integers(0, 60)), 0, k)]
        )
        q = state.provider.embed(f"caption probe {i}")
        out.append([(h.record_id, h.score) for h in state.captions.query_text(q, k)])
        out.append(
            [(h.record_id, h.score) for h in state.captions.query_position(Pose(*p), k)]
        )
        out.append(
            [(h.record_id, h.score) for h in state.captions.query_time(float(i), k)]
        )
    return out


class TestRoundTrip:
    def test_counts_and_config_survive(self, tmp_path):
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        assert loaded.cfg == state.cfg
        assert loaded.graph.node_count() == state.graph.node_count()
        assert loaded.captions.record_count() == state.captions.record_count()
        assert loaded.stats == state.stats
        assert loaded.graph.next_id == state.graph.next_id

    def test_retrieval_identical_after_round_trip(self, tmp_path):
        state = build_state()
        before = query_fingerprint(state)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        after = query_fingerprint(load_snapshot(path))
        assert before == after

    def test_save_is_deterministic(self, tmp_path):
        state = build_state()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_snapshot(state, p1)
        save_snapshot(state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_fsyncs_file_then_renames_then_fsyncs_directory(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.fspath(src), os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(build_state(), path)
        final = path.stat()
        assert events == [
            ("fsync", final.st_ino, final.st_size),  # the whole temp file
            ("replace", f"{path}.tmp", str(path)),
            ("fsync", tmp_path.stat().st_ino, "dir"),
        ]

    def test_format_1_0_file_with_edges_loads(self, tmp_path):
        # files written before the co-observation edge set was dropped
        # carry a "graph.edges" list; loading ignores it
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        write_v1(state, path)
        payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
        assert "edges" not in payload["graph"]
        payload["graph"]["edges"] = [[1, 2]]
        write_framed(path, payload)
        loaded = load_snapshot(path)
        assert loaded.graph.node_count() == state.graph.node_count()
        assert query_fingerprint(loaded) == query_fingerprint(state)

    def test_fixture_provider_survives(self, tmp_path):
        cfg = Config(embedding_dim=DIM)
        table = {"cup": unit_rows(1, DIM, seed=2)[0]}
        provider = FixtureProvider(table, fallback=HashProvider(3, DIM))
        state = SessionState.new(cfg, provider)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        assert isinstance(loaded.provider, FixtureProvider)
        assert np.array_equal(loaded.provider.embed("cup"), provider.embed("cup"))
        assert np.array_equal(loaded.provider.embed("new"), provider.embed("new"))

    def test_float64_session_identical_after_round_trip(self, tmp_path):
        # the stores keep float32 copies of float64 inputs, which the
        # snapshot's float32 blocks hold exactly
        cfg = Config(embedding_dim=DIM)
        state = SessionState.new(cfg, HashProvider(seed=3, dim=DIM))
        rng = np.random.default_rng(3)
        for i in range(30):
            e = rng.standard_normal((2, DIM))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            obs = Observation(
                frame_id=f"f{i}",
                pose=Pose(*rng.uniform(-20, 20, size=3)),
                time=float(i),
                labels=(Label(f"thing {i}", e[0]),),
                caption=Caption(f"scene {i}", e[1]),
            )
            state.ingest(obs)
        before = query_fingerprint(state)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        assert query_fingerprint(load_snapshot(path)) == before

    def test_format_2_1_layout(self, tmp_path):
        state = repeating_state()
        path = tmp_path / "s.lgrsnap"
        write_v2_1(state, path)
        header, meta, blocks = split_v2(path)
        assert header["version"] == [2, 1]
        assert header["payload_sha256"] == hashlib.sha256(meta + blocks).hexdigest()
        payload = json.loads(meta)
        assert "embedding" not in payload["graph"]["nodes"][0]
        assert "embedding" not in payload["captions"]["records"][0]
        # the uid columns, then each store's distinct vectors, in order of
        # first appearance
        uid_bytes, at = 0, None
        vectors = []
        for items in (state.graph.all_nodes(), state.captions.all_records()):
            first: dict[bytes, int] = {}
            for it in items:
                first.setdefault(it.embedding.tobytes(), len(first))
            vectors.append(list(first))
            uid = np.array([first[it.embedding.tobytes()] for it in items], "<i8")
            at = uid_bytes + uid.nbytes
            assert blocks[uid_bytes:at] == uid.tobytes()
            uid_bytes = at
        assert (payload["graph"]["vectors"], payload["captions"]["vectors"]) == tuple(
            map(len, vectors)
        )
        assert blocks[uid_bytes:] == b"".join(vectors[0] + vectors[1])

    def test_loaded_embeddings_are_read_only_block_rows(self, tmp_path):
        path = tmp_path / "s.lgrsnap"
        save_snapshot(build_state(), path)
        loaded = load_snapshot(path)
        assert loaded.format_version == FORMAT_VERSION
        embs = [n.embedding for n in loaded.graph.all_nodes()]
        embs += [r.embedding for r in loaded.captions.all_records()]
        assert all(e.dtype == np.float32 and not e.flags.writeable for e in embs)
        assert len({id(e.base) for e in embs}) == 1

    def test_loaded_stores_adopt_the_file_block(self, tmp_path):
        path = tmp_path / "s.lgrsnap"
        state = build_state()
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        g, c = loaded.graph._cols, loaded.captions._cols
        # each store's one chunk is its part of the one buffer the file was read into
        assert len(g.chunks) == len(c.chunks) == 1
        assert g.chunks[0].base is c.chunks[0].base is not None
        assert not g.chunks[0].flags.writeable and not c.chunks[0].flags.writeable
        assert not np.shares_memory(g.chunks[0], c.chunks[0])
        for cols, items in ((g, loaded.graph.all_nodes()), (c, loaded.captions.all_records())):
            assert all(np.shares_memory(it.embedding, cols.chunks[0]) for it in items)
        assert query_fingerprint(loaded) == query_fingerprint(state)

    def test_format_2_0_file_out_of_id_order_loads_identically(self, tmp_path):
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        rng = np.random.default_rng(4)
        pn = rng.permutation(state.graph.node_count())
        pr = rng.permutation(state.captions.record_count())
        write_v2_0(state, path, pn, pr)
        loaded = load_snapshot(path)
        assert loaded.format_version == (2, 0)
        for store, want in (
            (loaded.graph, state.graph.all_nodes()),
            (loaded.captions, state.captions.all_records()),
        ):
            got = store._all()
            assert [vars(a) | {"embedding": a.embedding.tobytes()} for a in got] == [
                vars(b) | {"embedding": b.embedding.tobytes()} for b in want
            ]
            # the sorted copy is the store's one chunk; its items are views of it
            (chunk,) = store._cols.chunks
            assert not chunk.flags.writeable
            assert all(np.shares_memory(it.embedding, chunk) for it in got)
        assert (loaded.graph.next_id, loaded.captions.next_id) == (
            state.graph.next_id, state.captions.next_id
        )
        assert query_fingerprint(loaded) == query_fingerprint(state)
        save_snapshot(loaded, path)
        save_snapshot(state, tmp_path / "direct.lgrsnap")
        assert split_v2(path)[2] == split_v2(tmp_path / "direct.lgrsnap")[2]

    def test_format_1_0_file_loads_identically(self, tmp_path):
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        write_v1(state, path)
        loaded = load_snapshot(path)
        assert loaded.format_version == (1, 0)
        assert loaded.stats == state.stats
        assert loaded.graph.next_id == state.graph.next_id
        assert query_fingerprint(loaded) == query_fingerprint(state)
        # the decoded vectors are one block per store, adopted as a 2.0 block is
        for store in (loaded.graph, loaded.captions):
            (chunk,) = store._cols.chunks
            assert not chunk.flags.writeable
            assert all(np.shares_memory(it.embedding, chunk) for it in store._all())
        save_snapshot(loaded, path)  # any save writes the current format
        assert load_snapshot(path).format_version == FORMAT_VERSION

    def test_format_1_0_file_with_wrong_width_vector_refused(self, tmp_path):
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        write_v1(state, path)
        payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
        wide = encode_vector(np.ones(DIM + 1, np.float32))
        payload["captions"]["records"][-1]["embedding"] = wide
        write_framed(path, payload)
        with pytest.raises(SnapshotError, match="dimension mismatch: expected"):
            load_snapshot(path)


def tied_fingerprint(state: SessionState) -> list:
    """Cosine tools and the ingest gate, queried with stored vectors so
    that many rows tie, at every k up to past the store size."""
    out = []
    for text in [f"thing {i}" for i in range(4)] + [f"scene {i}" for i in range(5)] + ["other"]:
        q = state.provider.embed(text)
        for k in range(1, 12):
            out.append([(h.node_id, h.score) for h in t_semantic(state.graph, state.provider, text, k)])
            out.append([(h.record_id, h.score) for h in state.captions.query_text(q, k)])
        out.append(state.graph.find_matches(q, Pose(300.0, 0.0)))
    return out


def items_of(store) -> list:
    return [vars(it) | {"embedding": it.embedding.tobytes()} for it in store._all()]


class TestInternedLayout:
    def test_round_trip_keeps_the_interned_layout(self, tmp_path):
        state = repeating_state()
        path, again = tmp_path / "s.lgrsnap", tmp_path / "again.lgrsnap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        rows = 0
        for before, after in ((state.graph, loaded.graph), (state.captions, loaded.captions)):
            assert after.vector_count() == before.vector_count() < len(before)
            n = len(before)
            assert np.array_equal(after._cols.uid[:n], before._cols.uid[:n])
            assert items_of(after) == items_of(before)
            # items that share a vector share its row of the file block
            embs = [it.embedding for it in after._all()]
            for i, j in zip(range(n), after._cols.uid[:n].tolist()):
                assert np.shares_memory(embs[i], after._cols.chunks[0][j])
            rows += n
        assert query_fingerprint(loaded) == query_fingerprint(state)
        assert tied_fingerprint(loaded) == tied_fingerprint(state)
        assert path.stat().st_size < rows * DIM * 4
        save_snapshot(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("version", ["2.0", "1.0"])
    def test_older_formats_load_one_vector_per_item(self, tmp_path, version):
        state = repeating_state()
        path = tmp_path / "s.lgrsnap"
        {"2.0": write_v2_0, "1.0": write_v1}[version](state, path)
        loaded = load_snapshot(path)
        assert ".".join(map(str, loaded.format_version)) == version
        for before, after in ((state.graph, loaded.graph), (state.captions, loaded.captions)):
            n = len(after)
            assert np.array_equal(after._cols.uid[:n], np.arange(n))
            assert after.vector_count() == n
            assert items_of(after) == items_of(before)
        assert query_fingerprint(loaded) == query_fingerprint(state)
        assert tied_fingerprint(loaded) == tied_fingerprint(state)

    def test_appends_after_load_share_vectors_with_each_other(self, tmp_path):
        # loaded vectors are not hashed: a repeat of one is stored again,
        # and repeats among later appends are shared
        state = repeating_state()
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        before = loaded.captions.vector_count()
        for i in range(4):
            text = "scene 1"
            loaded.ingest(
                Observation(f"g{i}", Pose(-100.0 * (i + 1), 0.0), 100.0 + i,
                            caption=Caption(text, loaded.provider.embed(text)))
            )
        assert loaded.captions.vector_count() == before + 1
        state.captions = CaptionStore.restore(state.cfg, loaded.captions.all_records())
        assert tied_fingerprint(loaded) == tied_fingerprint(state)

    def test_file_out_of_id_order_loads_identically(self, tmp_path):
        # items and their uid entries permuted together; the vectors stay
        state = repeating_state()
        path = tmp_path / "s.lgrsnap"
        write_v2_1(state, path)
        header, meta, blocks = split_v2(path)
        payload = json.loads(meta)
        rng = np.random.default_rng(6)
        uids, at = [], 0
        for section, key in (("graph", "nodes"), ("captions", "records")):
            items = payload[section][key]
            uid = np.frombuffer(blocks[at : at + 8 * len(items)], "<i8")
            at += 8 * len(items)
            order = rng.permutation(len(items))
            payload[section][key] = [items[i] for i in order]
            uids.append(uid[order].tobytes())
        meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        write_v2(path, dict(header, meta_bytes=len(meta)), meta, b"".join(uids) + blocks[at:])
        loaded = load_snapshot(path)
        for before, after in ((state.graph, loaded.graph), (state.captions, loaded.captions)):
            assert items_of(after) == items_of(before)
            assert after.vector_count() == before.vector_count()
        assert tied_fingerprint(loaded) == tied_fingerprint(state)
        assert query_fingerprint(loaded) == query_fingerprint(state)

    @pytest.mark.parametrize("bad", ["negative", "past the block", "unused vector"])
    def test_bad_uid_column_refused(self, tmp_path, bad):
        path = tmp_path / "s.lgrsnap"
        write_v2_1(repeating_state(), path)
        header, meta, blocks = split_v2(path)
        payload = json.loads(meta)
        n = len(payload["graph"]["nodes"])
        uid = np.frombuffer(blocks[: n * 8], "<i8").copy()
        if bad == "negative":
            uid[3] = -1
        elif bad == "past the block":
            uid[3] = payload["graph"]["vectors"]
        else:  # one more graph vector, which no node uses
            payload["graph"]["vectors"] += 1
            meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            at = len(blocks) - payload["captions"]["vectors"] * DIM * 4
            blocks = blocks[:at] + bytes(DIM * 4) + blocks[at:]
        blocks = uid.tobytes() + blocks[n * 8 :]
        write_v2(path, dict(header, meta_bytes=len(meta)), meta, blocks)
        with pytest.raises(SnapshotError, match="node uid column"):
            load_snapshot(path)


DATA = Path(__file__).parent / "data"


def cli_stdout(capsys, argv: list) -> str:
    """What ``lgr`` prints for ``argv``, with a routed answer's timing zeroed."""
    assert main(argv) == 0
    return re.sub(r'"elapsed": [-0-9.e]+', '"elapsed": 0', capsys.readouterr().out)


def test_committed_2_1_file_answers_as_before(tmp_path, capsys):
    # session_2_1.lgrsnap is a 2.1 file written by `lgr ingest` (hash
    # provider, dimension 16, repeated labels and captions, so both stores
    # share vectors and some nodes were updated); the expected file holds
    # what `lgr` printed for it then
    snap, again = tmp_path / "s.lgrsnap", tmp_path / "again.lgrsnap"
    shutil.copy(DATA / "session_2_1.lgrsnap", snap)
    expected = json.loads((DATA / "session_2_1.expected.json").read_text())
    for case in expected:
        argv = [str(snap) if a == "SNAP" else a for a in case["argv"]]
        assert cli_stdout(capsys, argv) == case["stdout"], argv
    old = load_snapshot(snap)
    assert old.format_version == (2, 1)
    save_snapshot(old, again)  # re-saved in the current format
    new = load_snapshot(again)
    assert new.format_version == FORMAT_VERSION
    for store in ("graph", "captions"):
        assert items_of(getattr(new, store)) == items_of(getattr(old, store))
    assert query_fingerprint(new) == query_fingerprint(old)
    assert tied_fingerprint(new) == tied_fingerprint(old)
    for case in expected:
        if case["argv"][0] == "query":  # `lgr stats` prints the format version
            argv = [str(again) if a == "SNAP" else a for a in case["argv"]]
            assert cli_stdout(capsys, argv) == case["stdout"], argv


@pytest.mark.parametrize("version", ["2.2", "2.1", "2.0", "1.0"])
def test_load_allocates_one_embedding_block(tmp_path, version):
    # numpy reports its buffers to tracemalloc; a second copy of the
    # embeddings (a column filled from the file block, or items keeping
    # their decoded vectors) would double what a load keeps. A 1.0 load
    # also parses the base64 text, so only a 2.0 load's peak is bounded.
    n, dim = 250, 1536
    cfg = Config(embedding_dim=dim)
    state = SessionState.new(cfg, HashProvider(seed=1, dim=dim))
    emb = unit_rows(2 * n, dim, seed=6)
    state.graph = MemoryGraph.restore(
        cfg, [EntityNode(i + 1, f"e{i}", emb[i], Pose(1.0, 2.0), 0.0, float(i), 1) for i in range(n)]
    )
    state.captions = CaptionStore.restore(
        cfg, [CaptionRecord(i + 1, f"c{i}", emb[n + i], Pose(1.0, 2.0), float(i)) for i in range(n)]
    )
    path = tmp_path / "s.lgrsnap"
    write_as(version, state, path)
    del state, emb
    tracemalloc.start()
    try:
        loaded = load_snapshot(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 2 * n * dim * 4
    assert loaded.graph.node_count() == loaded.captions.record_count() == n
    assert block <= kept <= 1.5 * block, (kept, block)
    if version != "1.0":
        assert peak <= 1.5 * block, (peak, block)


def write_framed(path, payload: dict, version=(1, 0)) -> None:
    """Write ``payload`` under a hand-built header with a correct SHA-256."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    header = {
        "format": "lgr-snapshot",
        "version": list(version),
        "payload_bytes": len(body),
        "payload_sha256": hashlib.sha256(body).hexdigest(),
    }
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def write_v1(state: SessionState, path) -> None:
    """Write ``state`` in the 1.0 layout: one JSON payload, vectors as base64."""
    write_framed(path, v1_payload(state))


def v1_payload(state: SessionState) -> dict:
    """``state`` as a 1.0 payload: every field, each vector as base64."""
    return {
        "config": state.cfg.to_dict(),
        "provider": provider_to_spec(state.provider),
        "graph": {
            "next_id": state.graph.next_id,
            "nodes": [
                {
                    "node_id": n.node_id,
                    "label_text": n.label_text,
                    "embedding": encode_vector(n.embedding),
                    "pose": n.pose.to_dict(),
                    "first_seen": n.first_seen,
                    "last_seen": n.last_seen,
                    "obs_count": n.obs_count,
                }
                for n in state.graph.all_nodes()
            ],
        },
        "captions": {
            "next_id": state.captions.next_id,
            "records": [
                {
                    "record_id": r.record_id,
                    "text": r.text,
                    "embedding": encode_vector(r.embedding),
                    "pose": r.pose.to_dict(),
                    "time": r.time,
                }
                for r in state.captions.all_records()
            ],
        },
        "stats": state.stats.to_dict(),
    }


def write_v2_0(state: SessionState, path, node_order=None, record_order=None) -> None:
    """Write ``state`` in the 2.0 layout: the meta JSON, then one float32
    vector per item, nodes first, items in the given orders (id order by
    default)."""
    payload = v1_payload(state)
    rows = []
    for section, key, order in (("graph", "nodes", node_order), ("captions", "records", record_order)):
        items = payload[section][key]
        items = [items[i] for i in (range(len(items)) if order is None else order)]
        rows += [decode_vector(it.pop("embedding")) for it in items]
        payload[section][key] = items
    meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    blocks = np.array(rows, "<f4").reshape(-1, state.cfg.embedding_dim).tobytes()
    write_v2(path, {"format": "lgr-snapshot", "version": [2, 0], "meta_bytes": len(meta)}, meta, blocks)


def write_v2_1(state: SessionState, path) -> None:
    """Write ``state`` in the 2.1 layout: the meta JSON with every item's
    fields but its vector, then each store's ``uid`` column and its stored
    vectors, as the store holds them."""
    payload = v1_payload(state)
    uids, blocks = [], []
    for section, key, store in (
        ("graph", "nodes", state.graph), ("captions", "records", state.captions)
    ):
        for it in payload[section][key]:
            del it["embedding"]
        cols = store._cols
        payload[section]["vectors"] = cols.distinct
        uids.append(cols.uid[: cols.size].astype("<i8").tobytes())
        blocks += [b.astype("<f4").tobytes() for b in cols.blocks()]
    meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    header = {"format": "lgr-snapshot", "version": [2, 1], "meta_bytes": len(meta)}
    write_v2(path, header, meta, b"".join(uids + blocks))


def repeating_state(seed: int = 23, frames: int = 40) -> SessionState:
    """A session ingested from frames whose labels and captions come from
    small vocabularies, 100 m apart, so most stored vectors repeat."""
    cfg = Config(embedding_dim=DIM)
    provider = HashProvider(seed=seed, dim=DIM)
    state = SessionState.new(cfg, provider)
    rng = np.random.default_rng(seed)
    for i in range(frames):
        label, caption = f"thing {rng.integers(4)}", f"scene {rng.integers(5)}"
        state.ingest(
            Observation(
                frame_id=f"f{i}",
                pose=Pose(100.0 * i, 0.0),
                time=float(i),
                labels=(Label(label, provider.embed(label)),),
                caption=Caption(caption, provider.embed(caption)),
            )
        )
    return state


def split_v2(path) -> tuple[dict, bytes, bytes]:
    """(header, meta JSON, binary part) of a 2.x file."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    return header, payload[: header["meta_bytes"]], payload[header["meta_bytes"] :]


def write_v2(path, header: dict, meta: bytes, blocks: bytes) -> None:
    """Write a 2.x file whose payload length and SHA-256 match ``meta + blocks``."""
    payload = meta + blocks
    header = dict(
        header, payload_bytes=len(payload), payload_sha256=hashlib.sha256(payload).hexdigest()
    )
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def saved(tmp_path, n_nodes: int = 5, n_captions: int = 3):
    path = tmp_path / "s.lgrsnap"
    save_snapshot(build_state(n_nodes=n_nodes, n_captions=n_captions), path)
    return path


def world_log(tmp_path) -> Path:
    """A grid-tour log at 2 Hz, every third frame without a caption, so a
    session at the default 2 s period keeps a quarter of its frames."""
    world = grid_tour_world(["cup", "door", "sofa", "lamp"], duration=120.0)
    records, _ = generate_synthetic_session(5, world, Config(subsample_period=0.5))
    path = tmp_path / "walk.jsonl"
    write_log([replace(r, caption="") if i % 3 == 0 else r for i, r in enumerate(records)], path)
    return path


def session_rows(state: SessionState) -> tuple:
    """Both stores' rows, stored vector counts and next ids."""
    stores = state.graph, state.captions
    return (state.graph.all_nodes(), state.captions.all_records(),
            [s.vector_count() for s in stores], [s.next_id for s in stores])


class TestSessionIngest:
    """``SessionState`` checks each frame once and applies all of it or none."""

    def test_each_path_checks_a_frame_once(self, tmp_path, monkeypatch):
        checked = []
        check = lgr.model.validate_observation
        monkeypatch.setattr(lgr.model, "validate_observation",
                            lambda obs, cfg: checked.append(obs.frame_id) or check(obs, cfg))
        cfg, log = Config(embedding_dim=DIM), world_log(tmp_path)
        counts = SessionState.new(cfg, HashProvider(3, DIM)).ingest_log(log)
        lines = len(log.read_text().splitlines())
        assert 0 < counts["captions_inserted"] < counts["observations"] < lines
        assert len(checked) == len(set(checked)) == counts["observations"]
        state = SessionState.new(cfg, HashProvider(3, DIM))
        frames = list(load_log(log, cfg, state.provider))
        checked.clear()
        for obs in frames:
            state.ingest(obs)
        assert checked == [obs.frame_id for obs in frames]

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
    def test_refused_frame_leaves_the_session_unchanged(self, tmp_path, fault):
        state = SessionState.new(Config(embedding_dim=DIM), HashProvider(3, DIM))
        state.ingest_log(world_log(tmp_path))
        before = session_rows(state)
        fields = dict(frame_id="f", pose=Pose(0.0, 0.0), time=1.0,
                      labels=(Label("x", HashProvider(0, DIM).embed("x")),))
        with pytest.raises(ValueError, match="invalid observation"):
            state.ingest(Observation(**(fields | fault)))
        assert session_rows(state) == before

    def test_log_and_frame_paths_agree(self, tmp_path):
        cfg, log = Config(embedding_dim=DIM), world_log(tmp_path)
        by_log = SessionState.new(cfg, HashProvider(3, DIM))
        counts = by_log.ingest_log(log)
        by_frame = SessionState.new(cfg, HashProvider(3, DIM))
        n = dict.fromkeys(counts, 0)
        for obs in load_log(log, cfg, by_frame.provider):
            report = by_frame.ingest(obs)
            n["observations"] += 1
            n["nodes_created"] += len(report.created)
            n["node_updates"] += len(report.updated)
            n["captions_inserted"] += obs.caption is not None
        assert n == counts and min(counts.values()) > 0
        save_snapshot(by_log, tmp_path / "log.lgrsnap")
        save_snapshot(by_frame, tmp_path / "frame.lgrsnap")
        assert (tmp_path / "log.lgrsnap").read_bytes() == (tmp_path / "frame.lgrsnap").read_bytes()


class TestCorruption:
    def test_colliding_next_id_refused(self, tmp_path):
        state = build_state(n_nodes=5, n_captions=3)
        state.graph._next_id = 3  # below the stored ids 1..7
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        with pytest.raises(SnapshotError, match="next_id"):
            load_snapshot(path)

    def test_truncated_payload_refused(self, tmp_path):
        state = build_state(n_nodes=5, n_captions=3)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        state = build_state(n_nodes=5, n_captions=3)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.lgrsnap")

    def test_wrong_format_name(self, tmp_path):
        path = tmp_path / "s.lgrsnap"
        path.write_bytes(b'{"format": "other"}\n{}')
        with pytest.raises(SnapshotError, match="not a lgr-snapshot"):
            load_snapshot(path)

    def test_newer_major_version_refused(self, tmp_path):
        state = build_state(n_nodes=2, n_captions=1)
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["version"] = [FORMAT_VERSION[0] + 1, 0]
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[newline:])
        with pytest.raises(SnapshotError, match="newer"):
            load_snapshot(path)

    def test_no_header_line(self, tmp_path):
        path = tmp_path / "s.lgrsnap"
        path.write_bytes(b"garbage with no newline")
        with pytest.raises(SnapshotError, match="header"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"[1, 2]",  # valid JSON, not an object: was AttributeError
            b'"lgr-snapshot"',
            b'{"format": "lgr-snapshot", "version": ["one", 0]}',  # was ValueError
            b'{"format": "lgr-snapshot", "version": 1}',
            b'{"format": "lgr-snapshot", "version": [1, 0], "payload_bytes": "many"}',
            b'{"format": "lgr-snapshot", "version": [1, 0], "payload_bytes": null}',
        ],
    )
    def test_malformed_header_refused(self, tmp_path, header):
        path = tmp_path / "s.lgrsnap"
        path.write_bytes(header + b"\n{}")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("version", lambda v: "".join(map(str, v))),  # "22": was read as [2, 2]
            ("version", lambda v: [str(x) for x in v]),  # ["2", "2"]: was [2, 2]
            ("version", lambda v: [v[0] + 0.9, *v[1:]]),  # [2.9, 2]: was [2, 2]
            ("version", lambda v: [True, *v[1:]]),  # was read as a 1.x file
            ("version", lambda v: []),  # was "newer than supported"
            ("version", lambda v: None),
            ("payload_bytes", float),  # was read as its integer
            ("payload_bytes", str),
            ("payload_bytes", lambda n: True),
        ],
        ids=["version-string", "version-strings", "version-float", "version-bool",
             "version-empty", "version-null", "bytes-float", "bytes-string", "bytes-bool"],
    )
    def test_header_numbers_are_checked(self, tmp_path, field, bad):
        # the header is outside the checksum, so only the first line changes
        path = tmp_path / "s.lgrsnap"
        save_snapshot(build_state(n_nodes=2, n_captions=1), path)
        line, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        assert load_snapshot(path).format_version == FORMAT_VERSION
        header[field] = bad(header[field])
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(SnapshotError, match=f"bad snapshot header: {field} must be"):
            load_snapshot(path)

    def test_mistyped_payload_section_refused(self, tmp_path):
        state = build_state(n_nodes=2, n_captions=1)
        path = tmp_path / "s.lgrsnap"
        write_v1(state, path)
        payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
        payload["stats"] = []  # was AttributeError
        write_framed(path, payload)
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(path)


    @pytest.mark.parametrize("meta_bytes", ["absent", None, "12", -1, 1.5, True, "over"])
    def test_bad_meta_bytes_refused(self, tmp_path, meta_bytes):
        path = saved(tmp_path)
        header, meta, blocks = split_v2(path)
        if meta_bytes == "absent":
            del header["meta_bytes"]
        elif meta_bytes == "over":
            header["meta_bytes"] = len(meta) + len(blocks) + 1
        else:
            header["meta_bytes"] = meta_bytes
        write_v2(path, header, meta, blocks)
        with pytest.raises(SnapshotError, match="meta_bytes"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "cut", [lambda b: b[:-4], lambda b: b + bytes(4), lambda b: b[:-1], lambda b: b""]
    )
    def test_block_size_mismatch_refused(self, tmp_path, cut):
        path = saved(tmp_path)
        header, meta, blocks = split_v2(path)
        write_v2(path, header, meta, cut(blocks))  # checksum still correct
        with pytest.raises(SnapshotError, match="embedding blocks"):
            load_snapshot(path)

    def test_flipped_byte_in_caption_block_fails_checksum(self, tmp_path):
        path = saved(tmp_path, n_captions=3)
        data = bytearray(path.read_bytes())
        data[-(3 * DIM * 4) // 2] ^= 0x01  # the middle of the caption block
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)


class TestProviderSpec:
    def test_hash_round_trip(self):
        provider = HashProvider(seed=42, dim=DIM)
        clone = provider_from_spec(provider_to_spec(provider), DIM)
        assert np.array_equal(clone.embed("x"), provider.embed("x"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SnapshotError, match="unknown provider"):
            provider_from_spec({"kind": "martian"}, DIM)

    def test_custom_provider_rejected_with_clear_error(self):
        class Weird(HashProvider.__bases__[0]):
            def embed(self, text):
                raise NotImplementedError

            def dimension(self):
                return DIM

        with pytest.raises(SnapshotError, match="cannot serialize"):
            provider_to_spec(Weird())


def test_session_state_new_checks_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        SessionState.new(Config(embedding_dim=DIM), HashProvider(0, DIM + 1))


# ----------------------------------------------------------------------
# format 2.2: row columns in binary blocks
# ----------------------------------------------------------------------

STORES = (("graph", MemoryGraph), ("captions", CaptionStore))
# each store's item fields as they map to columns
ITEM_COLUMNS = {
    "graph": {"node_id": "ids", "label_text": "text", "last_seen": "time",
              "first_seen": "first_seen", "obs_count": "count"},
    "captions": {"record_id": "ids", "text": "text", "time": "time"},
}


def write_as(version: str, state: SessionState, path) -> None:
    {"2.2": save_snapshot, "2.1": write_v2_1, "2.0": write_v2_0, "1.0": write_v1}[version](state, path)


def split_v2_2(path) -> tuple[dict, dict, dict, bytes]:
    """(header, meta, each store's columns by (section, name), vector
    blocks) of a 2.2 file."""
    header, meta, blocks = split_v2(path)
    payload = json.loads(meta)
    cols, at = {}, 0
    for section, store in STORES:
        n = payload[section]["rows"]
        for name in store._NAMES:
            dtype = "<i8" if name in ("ids", "text", "count", "uid") else "<f8"
            cols[section, name] = np.frombuffer(blocks[at : at + 8 * n], dtype).copy()
            at += 8 * n
    return header, payload, cols, blocks[at:]


def write_v2_2(path, header: dict, payload: dict, cols: dict, vectors: bytes) -> None:
    """Write a 2.2 file from ``split_v2_2``'s parts, with its checksum."""
    meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    columns = b"".join(c.tobytes() for c in cols.values())
    write_v2(path, dict(header, meta_bytes=len(meta)), meta, columns + vectors)


def rewrite_meta(path, edit) -> None:
    """Apply ``edit`` to a file's meta JSON (its whole payload for 1.x) and
    write it back with a correct checksum."""
    header, payload = path.read_bytes().split(b"\n", 1)
    if json.loads(header)["version"][0] < 2:
        payload = json.loads(payload)
        edit(payload)
        return write_framed(path, payload)
    header, meta, blocks = split_v2(path)
    payload = json.loads(meta)
    edit(payload)
    meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    write_v2(path, dict(header, meta_bytes=len(meta)), meta, blocks)


class TestFormat22:
    def test_layout(self, tmp_path):
        state = repeating_state()
        state.graph = random_graph(12, state.cfg, seed=4, duplicate_every=3)  # counts above 1
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        header, payload, cols, vectors = split_v2_2(path)
        assert header["version"] == list(FORMAT_VERSION) == [2, 2]
        distinct = []
        for section, store in (("graph", state.graph), ("captions", state.captions)):
            items, meta = store._all(), payload[section]
            assert sorted(meta) == ["next_id", "rows", "texts", "vectors"]
            assert (meta["next_id"], meta["rows"]) == (store.next_id, len(items))
            text_field = next(f for f, c in ITEM_COLUMNS[section].items() if c == "text")
            # each text once, in order of first appearance
            texts = [getattr(it, text_field) for it in items]
            assert meta["texts"] == list(dict.fromkeys(texts))
            for field, column in ITEM_COLUMNS[section].items():
                got = cols[section, column].tolist()
                if column == "text":
                    got = [meta["texts"][i] for i in got]
                assert got == [getattr(it, field) for it in items], field
            for axis in ("x", "y", "z", "yaw"):
                assert cols[section, axis].tolist() == [getattr(it.pose, axis) for it in items]
            cols_ = store._cols
            assert cols[section, "uid"].tolist() == cols_.uid[: cols_.size].tolist()
            assert meta["vectors"] == store.vector_count()
            distinct += [b.tobytes() for b in cols_.blocks()]
        assert vectors == b"".join(distinct)

    def test_round_trip_re_saves_byte_identically(self, tmp_path):
        state = build_state()
        path, again = tmp_path / "s.lgrsnap", tmp_path / "again.lgrsnap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        for store in ("graph", "captions"):
            assert items_of(getattr(loaded, store)) == items_of(getattr(state, store))
        assert query_fingerprint(loaded) == query_fingerprint(state)
        save_snapshot(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("count below 1", "obs_count must be >= 1, got 0"),
            ("ids out of order", "node ids must be ascending and unique"),
            ("repeated id", "node ids must be ascending and unique"),
            ("id at next_id", "next_id 7 must be >= 1 and above the largest id 7"),
            ("text index past the table", r"caption record text indexes must lie in \[0, 3\)"),
            ("negative text index", r"node text indexes must lie in \[0, 7\)"),
            ("text not a string", "node texts must be a list of distinct strings"),
            ("repeated text", "caption record texts must be a list of distinct strings"),
            ("rows not an integer", "rows must be an integer"),
        ],
    )
    def test_bad_row_columns_refused(self, tmp_path, bad, match):
        path = saved(tmp_path)  # nodes 1..7, three caption records
        header, payload, cols, vectors = split_v2_2(path)
        ids = cols["graph", "ids"]
        if bad == "count below 1":
            cols["graph", "count"][2] = 0
        elif bad == "ids out of order":
            ids[[1, 2]] = ids[[2, 1]]
        elif bad == "repeated id":
            ids[2] = ids[1]
        elif bad == "id at next_id":
            payload["graph"]["next_id"] = int(ids[-1])
        elif bad == "text index past the table":
            cols["captions", "text"][0] = len(payload["captions"]["texts"])
        elif bad == "negative text index":
            cols["graph", "text"][1] = -1
        elif bad == "text not a string":
            payload["graph"]["texts"][0] = 5
        elif bad == "repeated text":
            payload["captions"]["texts"][1] = payload["captions"]["texts"][0]
        else:
            payload["graph"]["rows"] = 7.0
        write_v2_2(path, header, payload, cols, vectors)
        with pytest.raises(SnapshotError, match=match):
            load_snapshot(path)


@pytest.mark.parametrize("version", ["2.1", "2.0", "1.0"])
@pytest.mark.parametrize(
    "count, match",
    [
        (2.5, "obs_count must be an integer, got 2.5"),  # was read as 2
        (True, "obs_count must be an integer, got True"),
        ("2", "obs_count must be an integer, got '2'"),
        (0, "obs_count must be >= 1, got 0"),
        (-3, "obs_count must be >= 1, got -3"),
    ],
)
def test_older_formats_refuse_a_bad_obs_count(tmp_path, version, count, match):
    path = tmp_path / "s.lgrsnap"
    write_as(version, build_state(n_nodes=5, n_captions=3), path)
    rewrite_meta(path, lambda p: p["graph"]["nodes"][1].update(obs_count=count))
    with pytest.raises(SnapshotError, match=match):
        load_snapshot(path)


@pytest.mark.parametrize("version", ["2.1", "1.0"])
@pytest.mark.parametrize(
    "key, field, value, match",
    [
        ("nodes", "node_id", "2", "node_id must be an integer"),
        ("nodes", "label_text", 5, "every label_text must be a string"),
        ("nodes", "first_seen", "1.0", "first_seen must be a number"),
        ("records", "time", True, "time must be a number"),
        ("records", "pose", {"x": "1", "y": 0.0}, "pose.x must be a number"),
    ],
)
def test_older_formats_refuse_mistyped_fields(tmp_path, version, key, field, value, match):
    path = tmp_path / "s.lgrsnap"
    write_as(version, build_state(n_nodes=5, n_captions=3), path)
    section = "graph" if key == "nodes" else "captions"
    rewrite_meta(path, lambda p: p[section][key][0].update({field: value}))
    with pytest.raises(SnapshotError, match=match):
        load_snapshot(path)


# ----------------------------------------------------------------------
# provider and stats fields are checked, not coerced
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "edit, match",
    [
        ({"provider": {"kind": "hash", "seed": "7", "dim": DIM}}, "seed must be an integer, got '7'"),
        ({"provider": {"kind": "hash", "seed": 7, "dim": 64.9}}, "dim must be an integer, got 64.9"),
        ({"provider": {"kind": "hash", "seed": True, "dim": DIM}}, "seed must be an integer, got True"),
        ({"provider": {"kind": "fixture", "dim": DIM, "fallback_seed": 1.0, "table": {}}},
         "fallback_seed must be an integer, got 1.0"),
        # was loaded: route gave up and semantic failed only at query time
        ({"provider": {"kind": "hash", "seed": 7, "dim": 8}},
         f"provider dim 8 != config embedding_dim {DIM}"),
        ({"provider": {"kind": "fixture", "dim": 1024, "fallback_seed": 1, "table": {}}},
         f"provider dim 1024 != config embedding_dim {DIM}"),
        ({"stats": {"n_queries": 1, "n_vector_calls": True}}, "n_vector_calls must be an integer, got True"),
        ({"stats": {"n_queries": "4"}}, "n_queries must be an integer, got '4'"),
        ({"stats": {"latencies": ["0.1"]}}, "latencies must be a number, got '0.1'"),
        ({"stats": {"traces": ["ab"]}}, "each trace must be a list of strings, got 'ab'"),
        ({"stats": {"traces": [["t_semantic", 3]]}}, "each trace must be a list of strings"),
    ],
)
def test_mistyped_provider_or_stats_field_refused_at_load(tmp_path, edit, match):
    path = saved(tmp_path)
    rewrite_meta(path, lambda p: p.update(edit))
    with pytest.raises(SnapshotError, match=re.escape(match)):
        load_snapshot(path)


def test_stats_and_provider_fields_load_as_saved(tmp_path):
    path = saved(tmp_path)
    loaded = load_snapshot(path)
    assert loaded.stats == build_state(n_nodes=5, n_captions=3).stats
    assert provider_to_spec(loaded.provider) == {"kind": "hash", "seed": 17, "dim": DIM}


# ----------------------------------------------------------------------
# the row columns and the vectors are read into separate buffers
# ----------------------------------------------------------------------


def test_loaded_block_base_holds_only_vector_bytes(tmp_path):
    path = tmp_path / "s.lgrsnap"
    save_snapshot(repeating_state(), path)
    _, payload, _, vectors = split_v2_2(path)
    loaded = load_snapshot(path)
    base = loaded.graph._cols.chunks[0].base
    assert base is loaded.captions._cols.chunks[0].base is not None
    assert base.nbytes == len(vectors) == (payload["graph"]["vectors"] + payload["captions"]["vectors"]) * DIM * 4
    assert base.tobytes() == vectors


@pytest.mark.parametrize("part", ["columns", "vectors"])
def test_flipped_byte_in_either_binary_part_fails_checksum(tmp_path, part):
    path = tmp_path / "s.lgrsnap"
    save_snapshot(repeating_state(), path)
    header, meta, binary = split_v2(path)
    _, _, _, vectors = split_v2_2(path)
    columns = len(binary) - len(vectors)
    at = columns // 2 if part == "columns" else columns + len(vectors) // 2
    data = bytearray(path.read_bytes())
    data[len(data) - len(binary) + at] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


# ----------------------------------------------------------------------
# fuzzing load_snapshot with mutated 2.2 files
# ----------------------------------------------------------------------

# integers stay small, so a drawn embedding_dim or provider dim never
# builds a large provider
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1024), st.floats(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@functools.cache
def fuzz_file() -> tuple[dict, str, dict, bytes]:
    """(header, meta JSON text, row columns by (section, name), vector
    blocks) of a small 2.2 file whose stores share vectors."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.lgrsnap"
        save_snapshot(repeating_state(frames=8), path)
        header, payload, cols, vectors = split_v2_2(path)
    return header, json.dumps(payload), cols, vectors


def meta_paths(node, prefix=()) -> list[tuple]:
    """The key path of every value in a JSON document, containers too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            out += meta_paths(value, prefix + (key,))
    return out


@st.composite
def snapshot_mutations(draw) -> tuple:
    """(how, where, value): one meta value swapped for another JSON type,
    dropped or nested; a ``uid`` entry overwritten; or a store's ``rows``
    or ``vectors`` changed."""
    payload = json.loads(fuzz_file()[1])
    how = draw(st.sampled_from(("swap", "drop", "nest", "uid", "count")))
    section = draw(st.sampled_from(("graph", "captions")))
    if how == "uid":
        row = draw(st.integers(0, payload[section]["rows"] - 1))
        m = payload[section]["vectors"]
        return how, (section, row), draw(st.integers(-2, m + 1) | st.sampled_from((-(2**63), 2**63 - 1)))
    if how == "count":
        key = draw(st.sampled_from(("rows", "vectors")))
        return how, (section, key), draw(st.integers(-2, 40) | st.just(2**62))
    where = draw(st.sampled_from(meta_paths(payload)))
    return how, where, draw(FUZZ_VALUES if how == "swap" else st.booleans())


@settings(max_examples=300, deadline=None)
@given(mutation=snapshot_mutations())
@example(mutation=("swap", ("provider", "dim"), 8))  # was loaded, and failed only at query time
@example(mutation=("swap", ("config", "embedding_dim"), 1024))
def test_mutated_snapshot_loads_whole_or_is_refused(mutation):
    """One mutation of a valid, re-checksummed 2.2 file: the load returns
    stores that keep every invariant, or raises SnapshotError, and never
    any other type."""
    how, where, value = mutation
    header, meta, cols, vectors = fuzz_file()
    payload, cols = json.loads(meta), {k: c.copy() for k, c in cols.items()}
    if how == "uid":
        cols[where[0], "uid"][where[1]] = value
    elif how == "count":
        payload[where[0]][where[1]] = value
    else:
        *parents, key = where
        holder = payload
        for p in parents:
            holder = holder[p]
        if how == "swap":
            holder[key] = value
        elif how == "drop":
            del holder[key]
        else:
            holder[key] = [holder[key]] if value else {"v": holder[key]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.lgrsnap"
        write_v2_2(path, header, payload, cols, vectors)
        try:
            state = load_snapshot(path)
        except SnapshotError:
            return
    assert state.provider.dimension() == state.cfg.embedding_dim  # as SessionState.new requires
    for store in (state.graph, state.captions):
        check_store(store)
