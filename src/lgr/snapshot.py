"""Versioned, checksummed persistence for a whole session.

Format 2.2 layout: one JSON header line (format name, version, payload
length ``payload_bytes``, meta length ``meta_bytes`` and the payload
SHA-256), then the payload: the meta JSON (config, provider, stats and,
per store, ``next_id``, its row count ``rows``, its count of stored
vectors ``vectors`` and its text table ``texts``), each store's row
columns (the graph's, then the caption store's), and each store's vector
block. A store's columns are its ``_NAMES``, as it holds them in memory:
``ids``, ``x``, ``y``, ``z``, ``yaw``, ``time`` and ``text`` (an index
into ``texts``), the graph's ``first_seen`` and ``count`` (obs_count),
then ``uid``, the row of the store's block that holds the row's
embedding: ``rows * 8`` bytes each, little-endian int64 (ids, text,
count, uid) or float64. A block holds the store's distinct stored
vectors as row-major little-endian float32
(``vectors * embedding_dim * 4`` bytes), so a shared vector is written
once, and retrieval is bit-identical across a save/load round trip.

Loading verifies the frame, the lengths and the checksum, and that a 2.2
file's ids already ascend: a 2.2 file is refused, never sorted. The rows of
every format then go through ``RowStore._restore``, which checks them as
it checks the rows ``restore`` is given: ids, ``next_id``, the text table
and its indexes, obs_count and ``uid``. Nothing is returned until both
stores are built, so a corrupt or truncated file never leaves partial state.
The binary part is read into two buffers, the row columns and the
vector blocks, and hashed in file order. Each store copies its row
columns into its own, so their buffer is freed after the load, and
adopts its read-only block as its first chunk, with no copy and no
hashing: the second buffer is the only copy of the embeddings. Older formats
still load: 2.1 (each item's fields in the meta, then the ``uid``
columns and blocks), 2.0 (no ``uid`` columns: one vector per item) and
1.x (one JSON document, base64 vectors inline, decoded and copied into
one read-only block per store, as ``restore`` copies its items'); in
both, row i holds vector i. Their fields are type-checked as they fill
the columns, and their texts are numbered in id order; an out-of-order
2.0 or 1.x file costs one sorted copy of its block. Saves always write
the current format, in one pass: the payload's parts are hashed, then
the header (with the digest) and the parts are written, each once.
"""

from __future__ import annotations

import hashlib
import json
import os
from numbers import Integral, Real
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .captions import CaptionStore
from .columns import RowStore, _intern, _stack, column_dtype
from .embedding import EmbeddingProvider, FixtureProvider, HashProvider
from .graph import IngestReport, MemoryGraph
from .logio import decode_vector, encode_vector, load_log
from .model import Config, Observation, Pose, ensure_valid, json_number
from .router import SessionStats

FORMAT_NAME = "lgr-snapshot"
FORMAT_VERSION = (2, 2)


class SnapshotError(RuntimeError):
    """Unreadable, corrupt, or incompatible snapshot."""


@dataclass
class SessionState:
    """Everything one session owns: config, provider, both stores, stats.
    The one ingest path: it checks each frame once, against ``cfg``, which
    ``new`` and ``load_snapshot`` build both stores from."""

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
        return cls(cfg, provider, MemoryGraph(cfg), CaptionStore(cfg), SessionStats())

    def ingest(self, obs: Observation) -> IngestReport:
        """Check one observation, then apply it; a refused one changes nothing."""
        ensure_valid(obs, self.cfg)
        return self._apply(obs)

    def ingest_log(self, path: str | Path) -> dict[str, int]:
        """Apply each frame ``load_log`` keeps and checks; the counts ``lgr ingest`` prints."""
        n = dict.fromkeys(("observations", "nodes_created", "node_updates", "captions_inserted"), 0)
        for obs in load_log(path, self.cfg, self.provider):
            report = self._apply(obs)
            n["observations"] += 1
            n["nodes_created"] += len(report.created)
            n["node_updates"] += len(report.updated)
            n["captions_inserted"] += obs.caption is not None
        return n

    def _apply(self, obs: Observation) -> IngestReport:
        """The graph first, then the caption if the checked frame has one."""
        report = self.graph._ingest(obs)
        if obs.caption is not None:
            self.captions._insert(obs)
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


def provider_from_spec(spec: dict, dim: int) -> EmbeddingProvider:
    """The provider a spec names, of the config's dimension ``dim``; its
    seeds and ``dim`` must be JSON integers, else ValueError. The spec's
    ``dim`` is checked before a provider of that size is built."""
    kind = spec.get("kind")
    if kind not in ("hash", "fixture"):
        raise SnapshotError(f"unknown provider kind: {kind!r}")
    spec_dim = json_number(spec["dim"], "dim", Integral)
    if spec_dim != dim:
        raise ValueError(f"provider dim {spec_dim} != config embedding_dim {dim}")
    if kind == "hash":
        return HashProvider(seed=json_number(spec["seed"], "seed", Integral), dim=dim)
    table = {text: decode_vector(data) for text, data in spec["table"].items()}
    seed = json_number(spec["fallback_seed"], "fallback_seed", Integral)
    return FixtureProvider(table, fallback=HashProvider(seed=seed, dim=dim), dim=dim)


def _entry_columns(store: type[RowStore], entries: list, values: dict) -> list[str]:
    """Put the row columns of a 1.x-2.1 meta's entries (one JSON object per
    item, its fields by name) in ``values`` and return their text table,
    numbered in id order as the store that saved them numbered it. Texts
    must be strings, numbers JSON numbers, ids and counts integers."""
    fields = [f.name for f in dataclass_fields(store._ITEM)]
    texts = [d[fields[1]] for d in entries]
    if not all(type(t) is str for t in texts):
        raise ValueError(f"every {fields[1]} must be a string")
    for f, col in ((fields[0], "ids"), *zip(fields[4:], store._REST)):
        kind = Integral if column_dtype(col) == np.int64 else Real
        values[col] = np.array([json_number(d[f], f, kind) for d in entries], column_dtype(col))
    poses = [Pose.from_dict(d["pose"]) for d in entries]
    values.update({c: np.array([getattr(p, c) for p in poses]) for c in ("x", "y", "z", "yaw")})
    order = np.argsort(values["ids"], kind="stable")
    numbers, table = _intern(map(texts.__getitem__, order.tolist()), len(texts))
    values["text"] = numbers[np.argsort(order)]  # back in file order
    return list(table)


def save_snapshot(state: SessionState, path: str | Path) -> None:
    """Write the session atomically and durably: the temp file is fsynced,
    renamed over ``path``, and then the directory is fsynced.

    The payload's parts are built in file order and hashed, then the
    header and the parts are written, each once.
    """
    meta = {"config": state.cfg.to_dict(), "provider": provider_to_spec(state.provider)}
    meta["stats"] = state.stats.to_dict()
    columns, blocks = [], []
    for key, store in (("graph", state.graph), ("captions", state.captions)):
        values, texts, store_blocks = store._export()
        n = len(values["ids"])
        vectors = sum(b.shape[0] for b in store_blocks)
        meta[key] = {"next_id": store.next_id, "rows": n, "vectors": vectors, "texts": texts}
        columns += values.values()
        blocks += store_blocks
    body = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # little-endian; astype copies only on a big-endian host
    parts = [body, *(a.astype(a.dtype.newbyteorder("<"), copy=False) for a in columns + blocks)]
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
    header = {"format": FORMAT_NAME, "version": list(FORMAT_VERSION), "meta_bytes": len(body),
              "payload_bytes": sum(memoryview(p).nbytes for p in parts),
              "payload_sha256": sha.hexdigest()}
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for part in parts:
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)  # makes the rename itself durable
    finally:
        os.close(dir_fd)


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
    version, payload_bytes = header.get("version"), header.get("payload_bytes", -1)
    try:
        if type(version) is not list or not version:
            raise ValueError(f"version must be a non-empty list of integers, got {version!r}")
        for v in version:
            json_number(v, "version", Integral)
        json_number(payload_bytes, "payload_bytes", Integral)
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad snapshot header: {exc}") from None
    if version[0] > FORMAT_VERSION[0]:
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


_KINDS = (MemoryGraph, "nodes"), (CaptionStore, "records")


def _layout(payload: dict, version: list[int]) -> tuple[list, list | None, list]:
    """Per store of a 2.x meta: its row count, its count of stored vectors
    (None in a 2.0 file: one per row) and the names of its row columns."""
    sections = payload["graph"], payload["captions"]
    vectors = None
    if version >= [2, 1]:
        vectors = [json_number(s["vectors"], "vectors", Integral) for s in sections]
    if version >= [2, 2]:
        counts = [json_number(s["rows"], "rows", Integral) for s in sections]
        names = [store._NAMES for store, _ in _KINDS]
    else:
        counts = [len(s[key]) for s, (_, key) in zip(sections, _KINDS)]
        names = [("uid",) if vectors else ()] * 2
    return counts, vectors, names


def _column_bytes(counts: list, names: list) -> int:
    return sum(n * 8 * len(cols) for n, cols in zip(counts, names))


def _read_meta(meta: bytes, version: list[int], limit: int) -> tuple[dict | None, int]:
    """The decoded meta (None when it does not decode) and the bytes of row
    columns it puts ahead of the vector blocks, clamped to [0, ``limit``]
    (0 when it does not give them). Read before the checksum is verified,
    so the columns and the vectors can land in separate buffers; nothing
    here is trusted until the checksum matches."""
    try:
        payload = json.loads(meta.decode("utf-8"))
    except ValueError:
        return None, 0
    try:
        counts, _, names = _layout(payload, version)
    except (AttributeError, KeyError, TypeError, ValueError):
        return payload, 0
    return payload, min(max(_column_bytes(counts, names), 0), limit)


def _split_blocks(columns: np.ndarray, blocks: np.ndarray, dim: int, counts: list,
                  vectors: list | None, names, path):
    """Per store (graph, then records): its row columns by name (with its
    ``uid`` column, if the file has one) and its read-only float32 vector
    block. ``columns`` holds each store's columns ``names``, 8 bytes per
    row each, and ``blocks`` each store's vectors: ``vectors`` of them, or
    one per row in a 2.0 file (``vectors`` None)."""
    col_bytes = _column_bytes(counts, names)
    vectors = vectors or counts
    expected = col_bytes + sum(vectors) * dim * 4
    size = columns.size + blocks.size
    if size != expected or min(vectors + counts) < 0:
        raise SnapshotError(
            f"{path}: embedding blocks hold {size} bytes, expected {expected} "
            f"for {counts[0]} nodes and {counts[1]} records of dimension {dim} "
            f"({vectors[0]} and {vectors[1]} stored vectors)"
        )
    # astype copies only on a big-endian host
    emb = blocks.view("<f4").reshape(-1, dim).astype(np.float32, copy=False)
    emb.setflags(write=False)
    out, lo, at = [], 0, 0
    for n, m, cols in zip(counts, vectors, names):
        values = {}
        for name in cols:  # astype copies only on a big-endian host
            dtype = column_dtype(name)
            column = columns[at : at + 8 * n].view(dtype.newbyteorder("<"))
            values[name] = column.astype(dtype, copy=False)
            at += 8 * n
        out.append((values, emb[lo : lo + m]))
        lo += m
    return out


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
            rest = expected_len - meta_len
            payload, split = _read_meta(meta, version, rest)
            # Two buffers, so the stores' vector blocks, views of the
            # second, keep no row-column bytes alive.
            columns, blocks = np.empty(split, np.uint8), np.empty(rest - split, np.uint8)
            got = len(meta) + fh.readinto(columns) + fh.readinto(blocks)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    if got != expected_len:
        raise SnapshotError(f"{path}: truncated payload ({got} bytes, expected {expected_len})")
    sha = hashlib.sha256(meta)
    sha.update(columns)
    sha.update(blocks)
    if sha.hexdigest() != digest:
        raise SnapshotError(f"{path}: payload checksum mismatch")
    try:
        if payload is None:
            payload = json.loads(meta.decode("utf-8"))  # raises what made _read_meta give up
        cfg = Config.from_dict(payload["config"])
        dim = cfg.embedding_dim
        try:
            provider = provider_from_spec(payload["provider"], dim)
        except SnapshotError as exc:  # an unknown kind: name the file, as every refusal does
            raise SnapshotError(f"{path}: {exc}") from None
        sections = payload["graph"], payload["captions"]
        if version[0] < 2:
            parts = [
                ({}, _stack([decode_vector(d["embedding"]) for d in s[key]], dim, store._WHAT))
                for s, (store, key) in zip(sections, _KINDS)
            ]
        else:
            counts, vectors, names = _layout(payload, version)
            parts = _split_blocks(columns, blocks, dim, counts, vectors, names, path)
        stores = []
        for (store, key), s, (values, block) in zip(_KINDS, sections, parts):
            if version < [2, 2]:
                texts = _entry_columns(store, s[key], values)
            else:  # refused, never sorted, when its ids do not ascend
                texts, ids = s["texts"], values["ids"]
                if not np.all(ids[1:] > ids[:-1]):
                    raise ValueError(f"{store._WHAT} ids must be ascending and unique")
            stores.append(store._restore(cfg, values, texts, s["next_id"], block))
        graph, captions = stores
        stats = SessionStats.from_dict(payload.get("stats", {}))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot payload: {exc}") from None
    return SessionState(cfg, provider, graph, captions, stats, tuple(version))
