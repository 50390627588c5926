"""Versioned, checksummed persistence for a whole session.

Format 2.1 layout: one JSON header line (format name, version, payload
length ``payload_bytes``, meta length ``meta_bytes`` and the payload
SHA-256), then the payload: the meta JSON (config, provider, node and
record fields other than embeddings, each store's count of stored
vectors ``vectors``, next ids, stats), the graph's and then the caption
store's ``uid`` column, and the graph's and then the caption store's
vector block. A ``uid`` column gives each item, in id order, the row of
its store's block that holds its embedding, as little-endian int64
(``count * 8`` bytes). A block holds each store's distinct stored
vectors as row-major little-endian float32 (``vectors * embedding_dim *
4`` bytes), so a vector that many items share is written once. Both
stores keep float32 embeddings, so retrieval is bit-identical across a
save/load round trip.

Loading verifies the frame, the lengths, the checksum and the ``uid``
columns before any state is constructed, so a corrupt or truncated file
can never leave partial state behind. The payload is read into one
buffer, which is the only copy of the embeddings: each store adopts its
read-only block as its first embedding chunk, with no copy and no
hashing, and loaded items hold row views of it. Saves write the stores'
chunks as they are. Format 2.0 files, whose blocks hold one vector per
item and no ``uid`` columns, still load, as do format 1.x files, whose
payload is one JSON document with base64 vectors inline: their vectors
are decoded straight into one block per store, which is adopted the same
way. Either gives one vector per item; a 2.0 file whose items are out of
id order costs one sorted copy. Saves always write the current format.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .captions import CaptionRecord, CaptionStore
from .columns import _dim_error
from .embedding import EmbeddingProvider, FixtureProvider, HashProvider
from .graph import EntityNode, IngestReport, MemoryGraph
from .logio import decode_vector, encode_vector
from .model import Config, Observation, Pose
from .router import SessionStats

FORMAT_NAME = "lgr-snapshot"
FORMAT_VERSION = (2, 1)
_CHUNK = 1024  # embedding rows written and hashed at a time on save


class SnapshotError(RuntimeError):
    """Unreadable, corrupt, or incompatible snapshot."""


@dataclass
class SessionState:
    """Everything one session owns: config, provider, both stores, stats."""

    cfg: Config
    provider: EmbeddingProvider
    graph: MemoryGraph
    captions: CaptionStore
    stats: SessionStats
    format_version: tuple[int, ...] = FORMAT_VERSION  # of the file it was loaded from

    @classmethod
    def new(cls, cfg: Config, provider: EmbeddingProvider) -> "SessionState":
        if provider.dimension() != cfg.embedding_dim:
            raise ValueError(
                f"provider dimension {provider.dimension()} != config embedding_dim "
                f"{cfg.embedding_dim}"
            )
        return cls(
            cfg=cfg,
            provider=provider,
            graph=MemoryGraph(cfg),
            captions=CaptionStore(cfg),
            stats=SessionStats(),
        )

    def ingest(self, obs: Observation) -> IngestReport:
        """Apply one observation: the graph first, then its caption if it
        has one."""
        report = self.graph.ingest_observation(obs)
        if obs.caption is not None:
            self.captions.insert_caption(obs)
        return report


def provider_to_spec(provider: EmbeddingProvider) -> dict:
    if isinstance(provider, HashProvider):
        return {"kind": "hash", "seed": provider.seed, "dim": provider.dimension()}
    if isinstance(provider, FixtureProvider):
        return {
            "kind": "fixture",
            "dim": provider.dimension(),
            "fallback_seed": provider.fallback.seed,
            "table": {text: encode_vector(vec) for text, vec in provider.table.items()},
        }
    raise SnapshotError(
        f"cannot serialize provider of type {type(provider).__name__}; "
        "snapshots support hash and fixture providers"
    )


def provider_from_spec(spec: dict) -> EmbeddingProvider:
    kind = spec.get("kind")
    if kind == "hash":
        return HashProvider(seed=int(spec["seed"]), dim=int(spec["dim"]))
    if kind == "fixture":
        table = {text: decode_vector(data) for text, data in spec["table"].items()}
        fallback = HashProvider(seed=int(spec["fallback_seed"]), dim=int(spec["dim"]))
        return FixtureProvider(table, fallback=fallback, dim=int(spec["dim"]))
    raise SnapshotError(f"unknown provider kind: {kind!r}")


def _node_to_dict(node: EntityNode) -> dict:
    return {
        "node_id": node.node_id,
        "label_text": node.label_text,
        "pose": node.pose.to_dict(),
        "first_seen": node.first_seen,
        "last_seen": node.last_seen,
        "obs_count": node.obs_count,
    }


def _node_from_dict(d: dict, embedding: np.ndarray) -> EntityNode:
    return EntityNode(
        node_id=int(d["node_id"]),
        label_text=str(d["label_text"]),
        embedding=embedding,
        pose=Pose.from_dict(d["pose"]),
        first_seen=float(d["first_seen"]),
        last_seen=float(d["last_seen"]),
        obs_count=int(d["obs_count"]),
    )


def _record_to_dict(record: CaptionRecord) -> dict:
    return {
        "record_id": record.record_id,
        "text": record.text,
        "pose": record.pose.to_dict(),
        "time": record.time,
    }


def _record_from_dict(d: dict, embedding: np.ndarray) -> CaptionRecord:
    return CaptionRecord(
        record_id=int(d["record_id"]),
        text=str(d["text"]),
        embedding=embedding,
        pose=Pose.from_dict(d["pose"]),
        time=float(d["time"]),
    )


def _header(payload_bytes: int, meta_bytes: int, digest: str) -> bytes:
    header = {
        "format": FORMAT_NAME,
        "version": list(FORMAT_VERSION),
        "payload_bytes": payload_bytes,
        "meta_bytes": meta_bytes,
        "payload_sha256": digest,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def save_snapshot(state: SessionState, path: str | Path) -> None:
    """Write the session atomically (temp file plus rename).

    The stores' embedding chunks are written and hashed ``_CHUNK`` rows
    at a time; the header goes first with a placeholder digest of the same
    length and is rewritten in place once the payload is hashed.
    """
    nodes, node_blocks, node_uid = state.graph._export()
    records, record_blocks, record_uid = state.captions._export()
    vectors = [sum(b.shape[0] for b in bs) for bs in (node_blocks, record_blocks)]
    meta = {
        "config": state.cfg.to_dict(),
        "provider": provider_to_spec(state.provider),
        "graph": {
            "next_id": state.graph.next_id,
            "nodes": [_node_to_dict(n) for n in nodes],
            "vectors": vectors[0],
        },
        "captions": {
            "next_id": state.captions.next_id,
            "records": [_record_to_dict(r) for r in records],
            "vectors": vectors[1],
        },
        "stats": state.stats.to_dict(),
    }
    body = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    uids = [
        (np.arange(len(items)) if uid is None else uid).astype("<i8", copy=False)
        for items, uid in ((nodes, node_uid), (records, record_uid))
    ]
    payload_bytes = len(body) + sum(u.nbytes for u in uids)
    payload_bytes += sum(vectors) * state.cfg.embedding_dim * 4
    sha = hashlib.sha256(body)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(_header(payload_bytes, len(body), "0" * sha.digest_size * 2))
        fh.write(body)
        for part in uids:
            sha.update(part)
            fh.write(part)
        for block in node_blocks + record_blocks:
            for i in range(0, block.shape[0], _CHUNK):
                part = block[i : i + _CHUNK].astype("<f4", copy=False)  # copies on big-endian hosts
                sha.update(part)
                fh.write(part)
        fh.seek(0)
        fh.write(_header(payload_bytes, len(body), sha.hexdigest()))
    os.replace(tmp, path)


def _read_header(line: bytes, path: Path) -> tuple[list[int], int, int, str]:
    """(version, payload_bytes, meta_bytes, payload_sha256) of a header line."""
    if not line.endswith(b"\n"):
        raise SnapshotError(f"{path}: missing snapshot header")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: bad snapshot header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise SnapshotError(f"{path}: not a {FORMAT_NAME} file")
    try:
        version = [int(v) for v in header.get("version", [])]
        payload_bytes = int(header.get("payload_bytes", -1))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: bad snapshot header: {exc}") from None
    if not version or version[0] > FORMAT_VERSION[0]:
        raise SnapshotError(
            f"{path}: snapshot version {version} is newer than supported "
            f"{list(FORMAT_VERSION)}"
        )
    if version[0] < 2:  # 1.x: the whole payload is JSON, vectors inline
        meta_bytes = payload_bytes
    else:
        meta_bytes = header.get("meta_bytes")
        if type(meta_bytes) is not int or not 0 <= meta_bytes <= payload_bytes:
            raise SnapshotError(
                f"{path}: bad snapshot header: meta_bytes {meta_bytes!r} is not an "
                f"integer in [0, {payload_bytes}]"
            )
    return version, payload_bytes, meta_bytes, header.get("payload_sha256")


def _split_blocks(blocks: np.ndarray, dim: int, counts: list, vectors: list | None, path: Path):
    """Read-only (node, record) float32 vector blocks and (node, record)
    ``uid`` columns of a payload's binary part, for stores of ``counts``
    items and ``vectors`` stored vectors. The uid columns are None for a
    2.0 file (``vectors`` None), and for a store whose item i holds
    vector i."""
    uid_bytes = 0 if vectors is None else sum(counts) * 8
    vectors = vectors or counts
    expected = uid_bytes + sum(vectors) * dim * 4
    if blocks.size != expected or min(vectors) < 0:
        raise SnapshotError(
            f"{path}: embedding blocks hold {blocks.size} bytes, expected {expected} "
            f"for {counts[0]} nodes and {counts[1]} records of dimension {dim} "
            f"({vectors[0]} and {vectors[1]} stored vectors)"
        )
    # astype copies only on a big-endian host
    emb = blocks[uid_bytes:].view("<f4").reshape(-1, dim).astype(np.float32, copy=False)
    emb.setflags(write=False)
    uid = blocks[:uid_bytes].view("<i8").astype(np.int64, copy=False)
    out, lo, at = [], 0, 0
    for what, n, m in zip(("node", "record"), counts, vectors):
        u = uid[at : at + n] if uid_bytes else None
        if u is not None:
            outside = u.size and (u.min() < 0 or u.max() >= m)
            if outside or np.count_nonzero(np.bincount(u, minlength=m)) != m:
                raise SnapshotError(
                    f"{path}: the {what} uid column must use each of its {m} stored "
                    f"vectors and no other"
                )
            if m == n and np.array_equal(u, np.arange(n)):
                u = None  # one vector per item, in item order
        out.append((emb[lo : lo + m], u))
        lo, at = lo + m, at + n
    return out


def _decode_block(entries: list, dim: int) -> np.ndarray:
    """Read-only (n, dim) float32 rows of the entries' inline base64
    vectors (format 1.x), decoded straight into one block."""
    block = np.empty((len(entries), dim), np.float32)
    for row, d in zip(block, entries):
        e = decode_vector(d["embedding"])
        if e.shape != row.shape:
            raise _dim_error(dim, e.shape)
        row[...] = e
    block.setflags(write=False)
    return block


def _rows(block: np.ndarray, uid) -> list:
    """Each item's embedding: a view of its row of ``block``."""
    return list(block) if uid is None else [block[u] for u in uid.tolist()]


def load_snapshot(path: str | Path) -> SessionState:
    """Verify the frame, then rebuild the full session state.

    Refuses snapshots written by a newer major format version. Any
    verification failure raises before state construction begins.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            line = fh.readline()
            version, expected_len, meta_len, digest = _read_header(line, path)
            size = os.fstat(fh.fileno()).st_size - len(line)
            if size != expected_len:
                raise SnapshotError(
                    f"{path}: truncated payload ({size} bytes, expected {expected_len})"
                )
            meta = fh.read(meta_len)
            blocks = np.empty(expected_len - meta_len, np.uint8)
            got = len(meta) + fh.readinto(blocks)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    if got != expected_len:
        raise SnapshotError(f"{path}: truncated payload ({got} bytes, expected {expected_len})")
    sha = hashlib.sha256(meta)
    sha.update(blocks)
    if sha.hexdigest() != digest:
        raise SnapshotError(f"{path}: payload checksum mismatch")
    try:
        payload = json.loads(meta.decode("utf-8"))
        cfg = Config.from_dict(payload["config"])
        provider = provider_from_spec(payload["provider"])
        g, c = payload["graph"], payload["captions"]
        dim = cfg.embedding_dim
        if version[0] < 2:
            node_block = _decode_block(g["nodes"], dim)
            record_block = _decode_block(c["records"], dim)
            node_uid = record_uid = None
        else:
            counts = [len(g["nodes"]), len(c["records"])]
            vectors = None if version < [2, 1] else [int(g["vectors"]), int(c["vectors"])]
            (node_block, node_uid), (record_block, record_uid) = _split_blocks(
                blocks, dim, counts, vectors, path
            )
        nodes = [_node_from_dict(d, e) for d, e in zip(g["nodes"], _rows(node_block, node_uid))]
        graph = MemoryGraph._restore(cfg, nodes, int(g["next_id"]), node_block, node_uid)
        records = [
            _record_from_dict(d, e) for d, e in zip(c["records"], _rows(record_block, record_uid))
        ]
        captions = CaptionStore._restore(cfg, records, int(c["next_id"]), record_block, record_uid)
        stats = SessionStats.from_dict(payload.get("stats", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot payload: {exc}") from None
    return SessionState(
        cfg=cfg,
        provider=provider,
        graph=graph,
        captions=captions,
        stats=stats,
        format_version=tuple(version),
    )
