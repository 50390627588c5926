"""Shared value types for the memory engine: poses, observations, config.

Everything in this module is an immutable value object, safe to share
between the ingest writer and concurrent readers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

# Stored embeddings must be unit length to within this L2-norm tolerance.
EMBEDDING_NORM_TOL = 1e-6


def json_number(value, what: str, kind: type = Real):
    """``value`` when it is a number of ``kind`` (``Integral`` for an
    integer) and not a bool, as a JSON number is; else ValueError."""
    if type(value) is int or type(value) is float and kind is Real:
        return value  # what json.loads gives, without the ABC checks
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    return value


def normalize_yaw(theta: float) -> float:
    """Wrap an angle into [-pi, pi).

    Uses IEEE remainder, which is exact, so already-wrapped angles pass
    through bit-identically (the function is idempotent).
    """
    if not math.isfinite(theta):
        raise ValueError(f"yaw must be finite, got {theta!r}")
    wrapped = math.remainder(theta, math.tau)
    if wrapped >= math.pi:
        wrapped -= math.tau
    return wrapped


@dataclass(frozen=True)
class Pose:
    """Robot pose in the session's single fixed frame; yaw in radians."""

    x: float
    y: float
    z: float = 0.0
    yaw: float = 0.0

    def position(self) -> np.ndarray:
        """Translational part as a float64 (x, y, z) vector."""
        return np.array((self.x, self.y, self.z), dtype=np.float64)

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in (self.x, self.y, self.z, self.yaw))

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "yaw": self.yaw}

    @classmethod
    def from_dict(cls, d: dict) -> "Pose":
        """A pose from its JSON object; each field must be a JSON number."""
        x, y, z, yaw = d["x"], d["y"], d.get("z", 0.0), d.get("yaw", 0.0)
        return cls(
            float(json_number(x, "pose.x")),
            float(json_number(y, "pose.y")),
            float(json_number(z, "pose.z")),
            float(json_number(yaw, "pose.yaw")),
        )


@dataclass(frozen=True, eq=False)
class Label:
    """One detected entity label with its text embedding."""

    text: str
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class Caption:
    """Scene description for one frame with its text embedding."""

    text: str
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class Observation:
    """One subsampled perception event.

    ``frame_id`` is an opaque reference to the source frame; pixel data
    never enters the engine. ``caption`` is None when the producing log
    omits captions.
    """

    frame_id: str
    pose: Pose
    time: float
    labels: Sequence[Label] = ()
    caption: Optional[Caption] = None


@dataclass(frozen=True)
class Config:
    """Session-wide engine parameters.

    delta_p: spatial radius in meters inside which a re-sighted entity
        updates an existing node instead of creating one.
    delta_e: cosine-similarity threshold above which two labels denote
        the same entity.
    subsample_period: minimum spacing in seconds between ingested frames.
    """

    delta_p: float = 5.0
    delta_e: float = 0.75
    subsample_period: float = 2.0
    default_k: int = 5
    max_planner_iterations: int = 8
    embedding_dim: int = 384

    def __post_init__(self) -> None:
        for f in fields(self):
            kind = Integral if f.type == "int" else Real
            value = json_number(getattr(self, f.name), f.name, kind)
            if kind is Real and type(value) is int and abs(value) > sys.float_info.max:
                raise ValueError(f"{f.name} is too large for a float")  # isfinite would overflow
        if not (math.isfinite(self.delta_p) and self.delta_p > 0):
            raise ValueError(f"delta_p must be > 0, got {self.delta_p}")
        if not (0.0 < self.delta_e <= 1.0):
            raise ValueError(f"delta_e must be in (0, 1], got {self.delta_e}")
        if not (math.isfinite(self.subsample_period) and self.subsample_period > 0):
            raise ValueError(
                f"subsample_period must be > 0, got {self.subsample_period}"
            )
        if self.default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {self.default_k}")
        if self.max_planner_iterations < 1:
            raise ValueError(
                f"max_planner_iterations must be >= 1, got {self.max_planner_iterations}"
            )
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.embedding_dim > 65536:  # refused before any vector that wide (256 KiB) is built
            raise ValueError("embedding_dim must be <= 65536")

    def to_dict(self) -> dict:
        """The fields by name, as snapshots and ``lgr`` config files hold them."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**known)


def _embedding_violations(vec: object, dim: int, what: str) -> list[str]:
    if not isinstance(vec, np.ndarray):
        return [f"{what}: embedding must be a numpy array"]
    if vec.ndim != 1 or vec.shape[0] != dim:
        shape = vec.shape[0] if vec.ndim == 1 else vec.shape
        return [f"{what}: dimension mismatch (expected {dim}, got {shape})"]
    # np.linalg.norm of a contiguous 1-D float64 array is sqrt(w.dot(w)). A
    # finite sum of squares means every component is finite, so only a
    # non-finite sum needs the per-component test.
    w = vec.astype(np.float64, order="C", copy=False)
    sq = float(w.dot(w))
    if not math.isfinite(sq) and not np.isfinite(w).all():
        return [f"{what}: non-finite embedding values"]
    norm = math.sqrt(sq)
    if abs(norm - 1.0) > EMBEDDING_NORM_TOL:
        return [f"{what}: embedding not L2-normalized (norm={norm:.8f})"]
    return []


def validate_observation(obs: Observation, cfg: Config) -> tuple[str, ...]:
    """Check an observation against the session config.

    Returns the message of every violation found; an empty tuple means the
    observation may enter the memory stores.
    """
    v: list[str] = []
    for name, value in (
        ("pose.x", obs.pose.x),
        ("pose.y", obs.pose.y),
        ("pose.z", obs.pose.z),
        ("pose.yaw", obs.pose.yaw),
    ):
        if not math.isfinite(value):
            v.append(f"{name} is not finite")
    if math.isfinite(obs.pose.yaw) and not (-math.pi <= obs.pose.yaw < math.pi):
        v.append(f"yaw out of range [-pi, pi): {obs.pose.yaw}")
    if not math.isfinite(obs.time):
        v.append("time is not finite")
    elif obs.time < 0:
        v.append(f"time must be non-negative, got {obs.time}")
    for i, label in enumerate(obs.labels):
        where = f"label {i}"
        if not label.text:
            v.append(f"{where}: empty text")
        v.extend(_embedding_violations(label.embedding, cfg.embedding_dim, where))
    if obs.caption is not None:
        if not obs.caption.text:
            v.append("caption: empty text (omit the caption instead)")
        v.extend(
            _embedding_violations(obs.caption.embedding, cfg.embedding_dim, "caption")
        )
    return tuple(v)


def ensure_valid(obs: Observation, cfg: Config) -> None:
    """Raise ValueError if the observation violates any invariant."""
    violations = validate_observation(obs, cfg)
    if violations:
        raise ValueError(f"invalid observation {obs.frame_id!r}: " + "; ".join(violations))
