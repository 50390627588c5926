"""Entity memory graph: gated node creation and running-mean pose updates.

A node records one physical entity as a triplet of label embedding, pose,
and last-seen time. Re-sightings fold into existing nodes when they pass
both gates: cosine similarity strictly above ``delta_e`` and straight-line
distance (x, y, z only) at most ``delta_p``. Frames containing several
instances of the same entity type create exactly as many extra nodes as
memory is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .columns import Columns, RowStore
from .model import Label, Observation, Pose, ensure_valid


@dataclass(frozen=True, eq=False)
class EntityNode:
    """One remembered entity.

    ``pose.x/y/z`` is the arithmetic mean of every matched sighting
    position; ``pose.yaw`` and ``embedding`` are fixed at creation. A node
    that ingest creates holds a read-only view of its graph's chunk row.
    """

    node_id: int
    label_text: str
    embedding: np.ndarray
    pose: Pose
    first_seen: float
    last_seen: float
    obs_count: int


@dataclass(frozen=True)
class IngestReport:
    """Per-observation ingest outcome; created and updated never overlap."""

    created: tuple[int, ...]
    updated: tuple[int, ...]
    labels_processed: int


def apply_update(node: EntityNode, p_new: Pose, t_new: float) -> EntityNode:
    """Fold one more sighting into a node.

    Position moves to the running mean weighted by the sighting count; yaw
    and embedding stay fixed; last_seen only moves forward (slightly
    re-ordered logs never rewind it).
    """
    if not p_new.is_finite():
        raise ValueError(f"pose must be finite, got {p_new}")
    if not math.isfinite(t_new):
        raise ValueError(f"time must be finite, got {t_new!r}")
    c = node.obs_count
    pose = Pose(
        x=(c * node.pose.x + p_new.x) / (c + 1),
        y=(c * node.pose.y + p_new.y) / (c + 1),
        z=(c * node.pose.z + p_new.z) / (c + 1),
        yaw=node.pose.yaw,
    )
    return replace(
        node, pose=pose, obs_count=c + 1, last_seen=max(node.last_seen, t_new)
    )


class MemoryGraph(RowStore):
    """Single-writer, many-reader store of entity nodes.

    All mutation happens under one lock and lands atomically per
    observation: a reader never sees half of a frame's creations or
    updates. Columns (float32 embedding chunks, float64 position and
    last_seen) back the vectorized scans used by retrieval and matching;
    an update rewrites only position and last_seen.
    """

    _ID = "node_id"
    _TIME = "last_seen"
    _WHAT = "node"

    node_count = RowStore.__len__
    get_node = RowStore._get
    all_nodes = RowStore._all

    # ------------------------------------------------------------------
    # matching and ingest
    # ------------------------------------------------------------------

    def find_matches(self, embedding: np.ndarray, pose: Pose) -> list[int]:
        """Node ids passing both gates, nearest first, id as tie-break."""
        with self._lock:
            return self._find_matches_locked(embedding, pose.position())

    def ingest_observation(self, obs: Observation) -> IngestReport:
        """Apply one observation's labels to the graph.

        Labels are grouped into same-entity groups by transitive closure
        of the similarity gate. For each group of size k matched against
        h pre-ingest nodes: all h are updated and k-h created when k >= h,
        otherwise only the k nearest are updated. A node takes at most one
        update per frame; the earliest group claims it.
        """
        ensure_valid(obs, self._cfg)
        with self._lock:
            if not obs.labels:
                return IngestReport((), (), 0)
            groups = self._group_labels(obs.labels)
            p = obs.pose.position()
            claimed: set[int] = set()
            updated: list[int] = []
            pending: dict[int, EntityNode] = {}
            fresh: list[tuple[int, Label]] = []
            for members in groups:
                rep = obs.labels[members[0]]
                matched = [
                    nid
                    for nid in self._find_matches_locked(rep.embedding, p)
                    if nid not in claimed
                ]
                k = len(members)
                targets = matched if k >= len(matched) else matched[:k]
                for nid in targets:
                    row = self._cols.row_of(nid)
                    pending[row] = apply_update(self._items[row], obs.pose, obs.time)
                    claimed.add(nid)
                    updated.append(nid)
                for _ in range(k - len(targets)):
                    fresh.append((self._next_id, rep))
                    self._next_id += 1
            # visibility point: apply the whole frame at once
            for row, node in pending.items():
                self._items[row] = node
                self._cols.write(row, node.pose.x, node.pose.y, node.pose.z, node.last_seen)
            pose, t = obs.pose, obs.time
            for nid, rep in fresh:
                e = self._cols.append(nid, rep.embedding, pose.x, pose.y, pose.z, t)
                self._items.append(EntityNode(nid, rep.text, e, pose, t, t, 1))
            created = tuple(nid for nid, _ in fresh)
            return IngestReport(created, tuple(updated), len(obs.labels))

    # ------------------------------------------------------------------
    # vectorized scans used by the retrieval tools
    # ------------------------------------------------------------------

    def top_semantic(self, q: np.ndarray, k: int) -> list[tuple[EntityNode, float]]:
        """k nodes with highest cosine similarity to ``q``, descending."""
        return self._top(Columns.top_cosine, q, k)

    def top_position(self, xyz: np.ndarray, k: int) -> list[tuple[EntityNode, float]]:
        """k nodes nearest to ``xyz`` in L2 over x, y, z, ascending."""
        return self._top(Columns.top_distance, xyz, k)

    def top_time(self, t: float, k: int) -> list[tuple[EntityNode, float]]:
        """k nodes whose last_seen is closest to ``t`` in L1, ascending."""
        return self._top(Columns.top_time_gap, t, k)

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------

    def _find_matches_locked(self, e, p: np.ndarray) -> list[int]:
        cols = self._cols
        d = cols.distance(p)
        hit = cols.cosine_above(e, self._cfg.delta_e, d <= self._cfg.delta_p)
        order = np.lexsort((cols.ids[hit], d[hit]))
        return cols.ids[hit[order]].tolist()

    def _group_labels(self, labels: Sequence) -> list[list[int]]:
        """Same-entity groups by transitive closure of the similarity gate.

        Groups are ordered by first appearance; the first member is the
        group representative. ``ensure_valid`` has checked every width.
        """
        n = len(labels)
        if n == 1:  # nothing to pair
            return [[0]]
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        mat = np.stack([lab.embedding for lab in labels]).astype(np.float64)
        sims = np.clip(mat @ mat.T, -1.0, 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                if sims[i, j] > self._cfg.delta_e:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values(), key=lambda g: g[0])
