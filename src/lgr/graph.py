"""Entity memory graph: gated node creation and running-mean pose updates.

A node records one physical entity as a triplet of label embedding, pose,
and last-seen time. Re-sightings fold into existing nodes when they pass
both gates: cosine similarity strictly above ``delta_e`` and straight-line
distance (x, y, z only) at most ``delta_p``. Frames containing several
instances of the same entity type create exactly as many extra nodes as
memory is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .columns import ROWS, RowStore
from .model import Label, Observation, Pose, ensure_valid


@dataclass(frozen=True)
class EntityNode:
    """One remembered entity.

    ``pose.x/y/z`` is the arithmetic mean of every matched sighting
    position; ``pose.yaw`` and ``embedding`` are fixed at creation. The
    graph keeps its nodes only in columns and builds a node when one is
    asked for: its ``embedding`` is then a read-only view of the stored
    vector. Nodes compare by every field but the embedding.
    """

    node_id: int
    label_text: str
    embedding: np.ndarray = field(compare=False)
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


def _running_mean(c: int, xyz, p: Pose) -> tuple:
    """The mean position of ``c`` sightings averaging ``xyz`` and one at ``p``."""
    return tuple((c * a + b) / (c + 1) for a, b in zip(xyz, (p.x, p.y, p.z)))


class MemoryGraph(RowStore):
    """Single-writer, many-reader store of entity nodes.

    All mutation happens under one lock and lands atomically per
    observation: a reader never sees half of a frame's creations or
    updates. The columns (float32 embedding chunks; float64 position, yaw,
    first_seen and last_seen; int64 id, label index and obs_count) are the
    only copy of the nodes and back the vectorized scans used by retrieval
    and matching; an update rewrites only position, last_seen and
    obs_count.
    """

    _ITEM, _ID, _WHAT = EntityNode, "node_id", "node"
    _REST = ("first_seen", "time", "count")  # first_seen, last_seen, obs_count
    _NAMES = ROWS + ("first_seen", "count", "uid")

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
            cols = self._cols
            claimed: set[int] = set()
            updated: list[int] = []
            pending: dict[int, dict] = {}  # row: its new column values
            fresh: list[tuple[int, Label]] = []
            for members in groups:
                rep = obs.labels[members[0]]
                matched = self._find_matches_locked(rep.embedding, p)
                matched = [nid for nid in matched if nid not in claimed]
                k = len(members)
                targets = matched if k >= len(matched) else matched[:k]
                for nid in targets:
                    row = cols.row_of(nid)
                    c = int(cols.count[row])
                    x, y, z = _running_mean(c, (cols.x[row], cols.y[row], cols.z[row]), obs.pose)
                    t = max(cols.time[row], obs.time)
                    pending[row] = {"x": x, "y": y, "z": z, "time": t, "count": c + 1}
                    claimed.add(nid)
                    updated.append(nid)
                for _ in range(k - len(targets)):
                    fresh.append((self._next_id, rep))
                    self._next_id += 1
            # visibility point: apply the whole frame at once
            for row, values in pending.items():
                cols.write(row, **values)
            t = obs.time
            for nid, rep in fresh:
                cols.append(nid, rep.embedding, rep.text, obs.pose, time=t, first_seen=t, count=1)
            created = tuple(nid for nid, _ in fresh)
            return IngestReport(created, tuple(updated), len(obs.labels))

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
