"""Observation-log format: one JSON object per line.

A record looks like::

    {"frame_id": "f00012", "t": 24.0,
     "pose": {"x": 1.5, "y": -2.0, "z": 0.0, "yaw": 0.3},
     "labels": ["hydrant", "bench"],
     "caption": "a brick path beside a bench and a fire hydrant",
     "label_embeddings": ["<base64 float32 LE>", ...],   # optional
     "caption_embedding": "<base64 float32 LE>"}         # optional

Records must be ordered by non-decreasing ``t``. Embedded vectors are
base64 of little-endian 32-bit floats and must be unit length; when they
are absent the configured provider embeds the text on load. Blank lines
and ``#`` comment lines are ignored. Caption text is producer metadata:
the engine enforces only non-emptiness, any generation-length cap is the
producer's business.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .embedding import EmbeddingProvider
from .model import (
    Caption,
    Config,
    Label,
    Observation,
    Pose,
    ensure_valid,
    normalize_yaw,
)


class LogParseError(ValueError):
    """Malformed log content; the message carries file and line."""


def encode_vector(vec: np.ndarray) -> str:
    """Base64 of the vector as little-endian float32, bit-exact."""
    return base64.b64encode(np.asarray(vec, dtype="<f4").tobytes()).decode("ascii")


def decode_vector(data: str) -> np.ndarray:
    """Inverse of :func:`encode_vector`; returns a read-only float32 array."""
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"bad base64 vector: {exc}") from None
    if len(raw) % 4 != 0:
        raise ValueError(f"vector byte length {len(raw)} is not a multiple of 4")
    out = np.frombuffer(raw, "<f4").astype(np.float32, copy=False)  # copies on big-endian hosts
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LogRecord:
    """One parsed log line, before embedding and validation."""

    frame_id: str
    t: float
    pose: Pose
    labels: tuple[str, ...] = ()
    caption: str = ""
    label_embeddings: Optional[tuple[np.ndarray, ...]] = None
    caption_embedding: Optional[np.ndarray] = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "frame_id": self.frame_id,
            "t": self.t,
            "pose": self.pose.to_dict(),
            "labels": list(self.labels),
            "caption": self.caption,
        }
        if self.label_embeddings is not None:
            out["label_embeddings"] = [encode_vector(v) for v in self.label_embeddings]
        if self.caption_embedding is not None:
            out["caption_embedding"] = encode_vector(self.caption_embedding)
        return out


def _list_field(obj: dict, key: str, default):
    """``obj[key]`` when it is a list, ``default`` when the key is absent or
    holds ``default``; any other value raises ``TypeError``."""
    value = obj.get(key, default)
    if value is default or isinstance(value, list):
        return value
    raise TypeError(f"{key} must be a list, got {type(value).__name__}")


def _parse_record(obj: dict, where: str) -> LogRecord:
    try:
        frame_id = str(obj["frame_id"])
        t = float(obj["t"])
        pose = Pose.from_dict(obj["pose"])
        labels = tuple(_list_field(obj, "labels", []))
        caption = obj.get("caption", "")
        for text in (*labels, caption):
            if not isinstance(text, str):
                raise TypeError(f"labels and caption must be strings, got {type(text).__name__}")
        encoded = _list_field(obj, "label_embeddings", None)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogParseError(f"{where}: bad record: {exc}") from None
    label_embeddings = None
    if encoded is not None:
        if len(encoded) != len(labels):
            raise LogParseError(
                f"{where}: {len(encoded)} label_embeddings for {len(labels)} labels"
            )
        try:
            label_embeddings = tuple(decode_vector(s) for s in encoded)
        except ValueError as exc:
            raise LogParseError(f"{where}: {exc}") from None
    caption_embedding = None
    if obj.get("caption_embedding"):
        try:
            caption_embedding = decode_vector(obj["caption_embedding"])
        except ValueError as exc:
            raise LogParseError(f"{where}: {exc}") from None
    return LogRecord(
        frame_id=frame_id,
        t=t,
        pose=pose,
        labels=labels,
        caption=caption,
        label_embeddings=label_embeddings,
        caption_embedding=caption_embedding,
    )


def _iter_log_records(path: str | Path) -> Iterator[LogRecord]:
    """Parse a log file line by line, enforcing non-decreasing timestamps."""
    path = Path(path)
    prev_t: Optional[float] = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogParseError(f"{where}: invalid JSON: {exc}") from None
            record = _parse_record(obj, where)
            if not math.isfinite(record.t) or record.t < 0:
                raise LogParseError(f"{where}: time must be non-negative, got {record.t}")
            if prev_t is not None and record.t < prev_t:
                raise LogParseError(
                    f"{where}: timestamps must be non-decreasing "
                    f"(got {record.t} after {prev_t})"
                )
            prev_t = record.t
            yield record


def read_log_records(path: str | Path) -> list[LogRecord]:
    """Parse a whole log file, enforcing non-decreasing timestamps."""
    return list(_iter_log_records(path))


def write_log(records: Iterable[LogRecord], path: str | Path) -> None:
    """Write records as JSON lines, deterministically formatted."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True))
            fh.write("\n")


def subsample(records: Iterable[LogRecord], period: float) -> list[LogRecord]:
    """Keep the first record, then one per ``period`` seconds at most.

    A record survives iff its t is at least ``period`` past the last kept
    record's t.
    """
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    kept: list[LogRecord] = []
    last_t: Optional[float] = None
    for record in records:
        if last_t is None or record.t >= last_t + period:
            kept.append(record)
            last_t = record.t
    return kept


def record_to_observation(
    record: LogRecord, cfg: Config, provider: EmbeddingProvider
) -> Observation:
    """Embed missing vectors, normalize yaw, and validate the result."""
    labels = []
    for i, text in enumerate(record.labels):
        if not text:
            raise ValueError(f"frame {record.frame_id!r}: label {i} has empty text")
        if record.label_embeddings is not None:
            emb = record.label_embeddings[i]
        else:
            emb = provider.embed(text)
        labels.append(Label(text=text, embedding=emb))
    caption = None
    if record.caption:
        emb = (
            record.caption_embedding
            if record.caption_embedding is not None
            else provider.embed(record.caption)
        )
        caption = Caption(text=record.caption, embedding=emb)
    pose = Pose(
        x=record.pose.x,
        y=record.pose.y,
        z=record.pose.z,
        yaw=normalize_yaw(record.pose.yaw) if math.isfinite(record.pose.yaw) else record.pose.yaw,
    )
    obs = Observation(
        frame_id=record.frame_id,
        pose=pose,
        time=record.t,
        labels=tuple(labels),
        caption=caption,
    )
    ensure_valid(obs, cfg)
    return obs


def load_log(
    path: str | Path, cfg: Config, provider: EmbeddingProvider
) -> Iterator[Observation]:
    """Parse, subsample, embed, and validate a log file.

    Yields observations in log order. The first ``next()`` parses and
    checks every line but holds only the records that survive
    subsampling; embedding work happens only for those.
    """
    kept = subsample(_iter_log_records(path), cfg.subsample_period)
    for record in kept:
        yield record_to_observation(record, cfg, provider)
