"""Versioned, checksummed persistence for a whole session.

Layout: one JSON header line naming the format, version, payload length,
and payload SHA-256, followed by the JSON payload itself. Loading
verifies the frame before any state is constructed, so a corrupt or
truncated file can never leave partial state behind. Vectors travel as
base64 little-endian float32, which keeps retrieval bit-identical across
a save/load round trip.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from .captions import CaptionRecord, CaptionStore
from .embedding import EmbeddingProvider, FixtureProvider, HashProvider
from .graph import EntityNode, MemoryGraph
from .logio import decode_vector, encode_vector
from .model import Config, Pose
from .router import SessionStats

FORMAT_NAME = "lgr-snapshot"
FORMAT_VERSION = (1, 0)


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
        "embedding": encode_vector(node.embedding),
        "pose": node.pose.to_dict(),
        "first_seen": node.first_seen,
        "last_seen": node.last_seen,
        "obs_count": node.obs_count,
    }


def _node_from_dict(d: dict) -> EntityNode:
    return EntityNode(
        node_id=int(d["node_id"]),
        label_text=str(d["label_text"]),
        embedding=decode_vector(d["embedding"]),
        pose=Pose.from_dict(d["pose"]),
        first_seen=float(d["first_seen"]),
        last_seen=float(d["last_seen"]),
        obs_count=int(d["obs_count"]),
    )


def _record_to_dict(record: CaptionRecord) -> dict:
    return {
        "record_id": record.record_id,
        "text": record.text,
        "embedding": encode_vector(record.embedding),
        "pose": record.pose.to_dict(),
        "time": record.time,
    }


def _record_from_dict(d: dict) -> CaptionRecord:
    return CaptionRecord(
        record_id=int(d["record_id"]),
        text=str(d["text"]),
        embedding=decode_vector(d["embedding"]),
        pose=Pose.from_dict(d["pose"]),
        time=float(d["time"]),
    )


def save_snapshot(state: SessionState, path: str | Path) -> None:
    """Write the session atomically (temp file plus rename)."""
    payload = {
        "config": state.cfg.to_dict(),
        "provider": provider_to_spec(state.provider),
        "graph": {
            "next_id": state.graph.next_id,
            "nodes": [_node_to_dict(n) for n in state.graph.all_nodes()],
        },
        "captions": {
            "next_id": state.captions.next_id,
            "records": [_record_to_dict(r) for r in state.captions.all_records()],
        },
        "stats": state.stats.to_dict(),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = json.dumps(
        {
            "format": FORMAT_NAME,
            "version": list(FORMAT_VERSION),
            "payload_bytes": len(body),
            "payload_sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(header)
        fh.write(b"\n")
        fh.write(body)
    os.replace(tmp, path)


def load_snapshot(path: str | Path) -> SessionState:
    """Verify the frame, then rebuild the full session state.

    Refuses snapshots written by a newer major format version. Any
    verification failure raises before state construction begins.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotError(f"{path}: missing snapshot header")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: bad snapshot header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise SnapshotError(f"{path}: not a {FORMAT_NAME} file")
    try:
        version = [int(v) for v in header.get("version", [])]
        expected_len = int(header.get("payload_bytes", -1))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: bad snapshot header: {exc}") from None
    if not version or version[0] > FORMAT_VERSION[0]:
        raise SnapshotError(
            f"{path}: snapshot version {version} is newer than supported "
            f"{list(FORMAT_VERSION)}"
        )
    body = raw[newline + 1 :]
    if len(body) != expected_len:
        raise SnapshotError(
            f"{path}: truncated payload ({len(body)} bytes, expected {expected_len})"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotError(f"{path}: payload checksum mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
        cfg = Config.from_dict(payload["config"])
        provider = provider_from_spec(payload["provider"])
        nodes = [_node_from_dict(d) for d in payload["graph"]["nodes"]]
        graph = MemoryGraph.restore(cfg, nodes, next_id=int(payload["graph"]["next_id"]))
        records = [_record_from_dict(d) for d in payload["captions"]["records"]]
        captions = CaptionStore.restore(
            cfg, records, next_id=int(payload["captions"]["next_id"])
        )
        stats = SessionStats.from_dict(payload.get("stats", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot payload: {exc}") from None
    return SessionState(
        cfg=cfg, provider=provider, graph=graph, captions=captions, stats=stats
    )
