"""Append-only caption store: scene descriptions with pose and time.

Unlike graph nodes, caption records are episodic and never merge or
mutate. Retrieval is exact top-k over a flat scan; the interface would
admit an ANN index, but approximate retrieval is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .columns import Columns, RowStore
from .model import Observation, Pose, ensure_valid


@dataclass(frozen=True, eq=False)
class CaptionRecord:
    """One scene description; a record that ingest inserts holds a
    read-only view of its store's chunk row as ``embedding``."""

    record_id: int
    text: str
    embedding: np.ndarray
    pose: Pose
    time: float


@dataclass(frozen=True)
class CaptionHit:
    """One scored caption record; score semantics depend on the query."""

    record_id: int
    text: str
    pose: Pose
    time: float
    score: float

    def to_dict(self) -> dict:
        """The fields by name, ``pose`` as a nested dict; ``lgr query`` prints these."""
        return asdict(self)


class CaptionStore(RowStore):
    """Flat scan store with the same writer/reader contract as the graph."""

    _ID = "record_id"
    _TIME = "time"
    _WHAT = "caption record"

    record_count = RowStore.__len__
    get_record = RowStore._get
    all_records = RowStore._all

    def insert_caption(self, obs: Observation) -> int:
        """Insert the observation's caption triplet; returns the record id.

        An observation without a caption is an error here; callers skip
        such frames upstream.
        """
        if obs.caption is None or not obs.caption.text:
            raise ValueError(f"observation {obs.frame_id!r} carries no caption")
        ensure_valid(obs, self._cfg)
        with self._lock:
            rid, pose = self._next_id, obs.pose
            e = self._cols.append(rid, obs.caption.embedding, pose.x, pose.y, pose.z, obs.time)
            self._items.append(CaptionRecord(rid, obs.caption.text, e, pose, obs.time))
            self._next_id = rid + 1
            return rid

    # ------------------------------------------------------------------
    # top-k queries: deterministic order, record_id breaks ties
    # ------------------------------------------------------------------

    def query_text(self, q: np.ndarray, k: int) -> list[CaptionHit]:
        """Top-k by descending cosine similarity to a query embedding."""
        return self._hits(Columns.top_cosine, q, k)

    def query_position(self, pose: Pose, k: int) -> list[CaptionHit]:
        """Top-k by ascending L2 distance over x, y, z."""
        x, y, z = pose.x, pose.y, pose.z
        if not all(math.isfinite(v) for v in (x, y, z)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y}, {z})")
        return self._hits(Columns.top_distance, pose.position(), k)

    def query_time(self, t: float, k: int) -> list[CaptionHit]:
        """Top-k by ascending absolute time difference."""
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        return self._hits(Columns.top_time_gap, t, k)

    def _hits(self, rank, arg, k: int) -> list[CaptionHit]:
        return [
            CaptionHit(r.record_id, r.text, r.pose, r.time, s)
            for r, s in self._top(rank, arg, k)
        ]
