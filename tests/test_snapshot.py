from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

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
    load_snapshot,
    save_snapshot,
    t_position,
    t_semantic,
    t_time,
)
from lgr.logio import encode_vector
from lgr.snapshot import FORMAT_VERSION, provider_from_spec, provider_to_spec


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

    def test_format_2_0_layout(self, tmp_path):
        state = build_state()
        path = tmp_path / "s.lgrsnap"
        save_snapshot(state, path)
        header, meta, blocks = split_v2(path)
        assert header["version"] == list(FORMAT_VERSION) == [2, 0]
        assert header["payload_sha256"] == hashlib.sha256(meta + blocks).hexdigest()
        payload = json.loads(meta)
        assert "embedding" not in payload["graph"]["nodes"][0]
        assert "embedding" not in payload["captions"]["records"][0]
        rows = [n.embedding for n in state.graph.all_nodes()]
        rows += [r.embedding for r in state.captions.all_records()]
        assert blocks == np.array(rows, "<f4").tobytes()

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
        save_snapshot(state, path)
        header, meta, blocks = split_v2(path)
        payload = json.loads(meta)
        nodes, records = payload["graph"]["nodes"], payload["captions"]["records"]
        row = len(nodes) * DIM * 4
        node_rows = np.frombuffer(blocks[:row], "<f4").reshape(len(nodes), DIM)
        record_rows = np.frombuffer(blocks[row:], "<f4").reshape(len(records), DIM)
        rng = np.random.default_rng(4)
        pn, pr = rng.permutation(len(nodes)), rng.permutation(len(records))
        payload["graph"]["nodes"] = [nodes[i] for i in pn]
        payload["captions"]["records"] = [records[i] for i in pr]
        meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        write_v2(path, dict(header, meta_bytes=len(meta)), meta, node_rows[pn].tobytes() + record_rows[pr].tobytes())
        loaded = load_snapshot(path)
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
        assert split_v2(path)[2] == blocks

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


@pytest.mark.parametrize("version", ["2.0", "1.0"])
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
    if version == "2.0":
        save_snapshot(state, path)
    else:
        write_v1(state, path)
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
    if version == "2.0":
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
    payload = {
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
    write_framed(path, payload)


def split_v2(path) -> tuple[dict, bytes, bytes]:
    """(header, meta JSON, embedding blocks) of a 2.0 file."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    return header, payload[: header["meta_bytes"]], payload[header["meta_bytes"] :]


def write_v2(path, header: dict, meta: bytes, blocks: bytes) -> None:
    """Write a 2.0 file whose payload length and SHA-256 match ``meta + blocks``."""
    payload = meta + blocks
    header = dict(
        header, payload_bytes=len(payload), payload_sha256=hashlib.sha256(payload).hexdigest()
    )
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def saved(tmp_path, n_nodes: int = 5, n_captions: int = 3):
    path = tmp_path / "s.lgrsnap"
    save_snapshot(build_state(n_nodes=n_nodes, n_captions=n_captions), path)
    return path


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
        clone = provider_from_spec(provider_to_spec(provider))
        assert np.array_equal(clone.embed("x"), provider.embed("x"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SnapshotError, match="unknown provider"):
            provider_from_spec({"kind": "martian"})

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
