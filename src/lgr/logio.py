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

One parse decodes each distinct vector text once: every kept record
that carries the same text shares one read-only array, so a loaded log
holds as many arrays as the kept frames have distinct vectors, not one
per field.
"""

from __future__ import annotations

import base64
import json
import math
from collections import deque
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
    json_number,
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


_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _is_canonical_vector(data: object) -> bool:
    """True when ``data`` is padded base64 of whole float32 values.

    Every such string decodes; a string this test refuses may still decode
    (the strict decoder tolerates some surplus ``=``), so it is never an
    error by itself.
    """
    if type(data) is not str or not data.isascii():
        return False
    raw = data.encode("ascii")
    pad = raw.translate(None, _B64_ALPHABET)  # what is left outside the alphabet
    return (
        len(raw) % 4 == 0
        and pad in (b"", b"=", b"==")
        and raw.endswith(pad)
        and (len(raw) // 4 * 3 - len(pad)) % 4 == 0
    )


def _check_vector(data: object) -> None:
    """Raise exactly what :func:`decode_vector` raises on ``data``, without
    decoding it when it is canonical."""
    if not _is_canonical_vector(data):
        decode_vector(data)


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


def _fields(obj: dict) -> tuple[str, float, Pose, tuple[str, ...], str, Optional[list]]:
    """Check and convert a record's fields other than its vectors."""
    try:
        frame_id = obj["frame_id"]
        if type(frame_id) not in (str, int):  # a bool is not an int here
            raise TypeError(f"frame_id must be a string or an integer, got {frame_id!r}")
        t = float(json_number(obj["t"], "t"))
        pose = Pose.from_dict(obj["pose"])
        labels = tuple(_list_field(obj, "labels", []))
        caption = obj.get("caption", "")
        for text in (*labels, caption):
            if not isinstance(text, str):
                raise TypeError(f"labels and caption must be strings, got {type(text).__name__}")
        encoded = _list_field(obj, "label_embeddings", None)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise LogParseError(f"bad record: {exc}") from None
    if encoded is not None and len(encoded) != len(labels):
        raise LogParseError(f"{len(encoded)} label_embeddings for {len(labels)} labels")
    return str(frame_id), t, pose, labels, caption, encoded


def _check_period(period: float) -> None:
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")


def _keeps(last_t: Optional[float], t: float, period: float) -> bool:
    """The subsampling rule: keep the first record, then each record whose
    t is at least ``period`` past the last kept record's t."""
    return last_t is None or t >= last_t + period


def _iter_log_records(
    path: str | Path, period: Optional[float] = None
) -> Iterator[LogRecord]:
    """Parse a log file line by line, enforcing non-decreasing timestamps.

    With ``period`` set, yield only the records :func:`subsample` would
    keep. Every line is checked the same either way, but the vectors of a
    dropped line are only checked, never decoded. Each distinct vector
    string is decoded once per call, and the records that carry it share
    the one read-only array; a dropped line skips the check of a string
    already decoded.
    """
    if period is not None:
        _check_period(period)
    path = Path(path)
    prev_t: Optional[float] = None
    last_kept: Optional[float] = None
    seen: dict[str, np.ndarray] = {}  # vector text -> its array, for this parse only

    def decode(data: object) -> np.ndarray:
        if type(data) is not str:  # unhashable or never a vector: decode_vector raises
            return decode_vector(data)
        vec = seen.get(data)
        if vec is None:
            vec = seen[data] = decode_vector(data)
        return vec

    def check(data: object) -> None:
        if type(data) is not str or data not in seen:
            _check_vector(data)

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
                frame_id, t, pose, labels, caption, encoded = _fields(obj)
                keep = period is None or _keeps(last_kept, t, period)
                vector = decode if keep else check
                label_embeddings = None if encoded is None else tuple(map(vector, encoded))
                caption_embedding = obj.get("caption_embedding")
                caption_embedding = vector(caption_embedding) if caption_embedding else None
                if not math.isfinite(t) or t < 0:
                    raise LogParseError(f"time must be non-negative, got {t}")
                if prev_t is not None and t < prev_t:
                    raise LogParseError(
                        f"timestamps must be non-decreasing (got {t} after {prev_t})"
                    )
            except json.JSONDecodeError as exc:
                raise LogParseError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            except ValueError as exc:  # LogParseError or a vector's decode error
                raise LogParseError(f"{path}:{lineno}: {exc}") from None
            prev_t = t
            if keep:
                last_kept = t
                yield LogRecord(
                    frame_id, t, pose, labels, caption, label_embeddings, caption_embedding
                )


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
    _check_period(period)
    kept: list[LogRecord] = []
    last_t: Optional[float] = None
    for record in records:
        if _keeps(last_t, record.t, period):
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
        emb = record.caption_embedding
        caption = Caption(record.caption, provider.embed(record.caption) if emb is None else emb)
    p = record.pose
    pose = Pose(p.x, p.y, p.z, normalize_yaw(p.yaw) if math.isfinite(p.yaw) else p.yaw)
    obs = Observation(record.frame_id, pose, record.t, tuple(labels), caption)
    ensure_valid(obs, cfg)
    return obs


def load_log(
    path: str | Path, cfg: Config, provider: EmbeddingProvider
) -> Iterator[Observation]:
    """Parse, subsample, embed, and validate a log file.

    Yields observations in log order. The first ``next()`` parses and
    checks every line but decodes and holds only the records that survive
    subsampling; embedding work happens only for those. Each record is
    released as it is converted.
    """
    kept = deque(_iter_log_records(path, cfg.subsample_period))
    while kept:
        yield record_to_observation(kept.popleft(), cfg, provider)
