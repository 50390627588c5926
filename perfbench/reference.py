"""Independent full-scan reference for the six retrieval tools.

Scores are recomputed here with their own reductions (row products
summed in float64, ``np.linalg.norm`` distances) and ranked with python
sorts on ``(score, id)``, never the engine's ``lexsort`` paths. A checked
call must return exactly the reference's ids, in the same order, with
scores equal to within 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lgr import HashProvider

SCORE_TOL = 1e-6
_CHUNK = 8192  # rows per scoring block, so a 100k-row check needs little memory


@dataclass(frozen=True)
class Rows:
    """One store's rows: ids, unit embeddings, positions and times."""

    ids: np.ndarray
    emb: np.ndarray
    pos: np.ndarray
    time: np.ndarray

    @classmethod
    def of_nodes(cls, nodes) -> "Rows":
        return cls(
            np.array([n.node_id for n in nodes], dtype=np.int64),
            np.stack([n.embedding for n in nodes]) if nodes else np.empty((0, 0)),
            np.array([(n.pose.x, n.pose.y, n.pose.z) for n in nodes], dtype=np.float64),
            np.array([n.last_seen for n in nodes], dtype=np.float64),
        )

    @classmethod
    def of_records(cls, records) -> "Rows":
        return cls(
            np.array([r.record_id for r in records], dtype=np.int64),
            np.stack([r.embedding for r in records]) if records else np.empty((0, 0)),
            np.array([(r.pose.x, r.pose.y, r.pose.z) for r in records], dtype=np.float64),
            np.array([r.time for r in records], dtype=np.float64),
        )


def _ranked(ids: np.ndarray, scores: np.ndarray, k: int, descending: bool) -> list[tuple[int, float]]:
    pairs = zip(ids.tolist(), scores.tolist())
    if descending:
        return sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
    return sorted(pairs, key=lambda p: (p[1], p[0]))[:k]


def semantic(rows: Rows, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    q64 = np.asarray(q, dtype=np.float64)
    scores = np.concatenate(
        [(rows.emb[i : i + _CHUNK].astype(np.float64) * q64).sum(axis=1) for i in range(0, len(rows.ids), _CHUNK)]
        or [np.empty(0)]
    )
    return _ranked(rows.ids, np.clip(scores, -1.0, 1.0), k, descending=True)


def position(rows: Rows, xyz, k: int) -> list[tuple[int, float]]:
    d = np.linalg.norm(rows.pos - np.asarray(xyz, dtype=np.float64), axis=1)
    return _ranked(rows.ids, d, k, descending=False)


def timing(rows: Rows, t: float, k: int) -> list[tuple[int, float]]:
    return _ranked(rows.ids, np.abs(rows.time - float(t)), k, descending=False)


def matches(rows: Rows, e: np.ndarray, xyz, delta_e: float, delta_p: float) -> list[int]:
    """Ids of rows passing both ingest gates, nearest first, id as tie-break."""
    e64 = np.asarray(e, dtype=np.float64)
    sims = np.concatenate(
        [(rows.emb[i : i + _CHUNK].astype(np.float64) * e64).sum(axis=1) for i in range(0, len(rows.ids), _CHUNK)]
        or [np.empty(0)]
    )
    d = np.linalg.norm(rows.pos - np.asarray(xyz, dtype=np.float64), axis=1)
    hit = np.nonzero((np.clip(sims, -1.0, 1.0) > delta_e) & (d <= delta_p))[0]
    return [i for _, i in sorted(zip(d[hit].tolist(), rows.ids[hit].tolist()))]


class Reference:
    """Expected results of every tool over fixed graph and caption rows."""

    def __init__(self, graph: Rows, captions: Rows, provider_seed: int, dim: int):
        self.graph = graph
        self.captions = captions
        self._provider = HashProvider(seed=provider_seed, dim=dim)

    def expected(self, tool: str, a: dict) -> list[tuple[int, float]]:
        if tool == "t_semantic":
            return semantic(self.graph, self._provider.embed(a["query"]), a["k"])
        if tool == "t_position":
            return position(self.graph, (a["x"], a["y"], a["z"]), a["k"])
        if tool == "t_time":
            return timing(self.graph, 3600.0 * a["hh"] + 60.0 * a["mm"] + a["ss"], a["k"])
        if tool == "captions_text":
            return semantic(self.captions, self._provider.embed(a["query"]), a["k"])
        if tool == "captions_position":
            return position(self.captions, (a["x"], a["y"], a["z"]), a["k"])
        if tool == "captions_time":
            return timing(self.captions, a["t"], a["k"])
        raise ValueError(f"no reference for tool {tool!r}")


def pairs(hits) -> list[tuple[int, float]]:
    """(id, score) of graph or caption hits, in returned order."""
    return [(getattr(h, "node_id", None) or h.record_id, h.score) for h in hits]


def agrees(got: list[tuple[int, float]], want: list[tuple[int, float]]) -> bool:
    return [g[0] for g in got] == [w[0] for w in want] and all(
        abs(g[1] - w[1]) <= SCORE_TOL for g, w in zip(got, want)
    )


def answer_from_last_step(answer) -> bool:
    """A routed answer that did not give up carries its last step's top hit."""
    if answer.gave_up:
        return True
    last = answer.trace[-1].hits if answer.trace else None
    return bool(last) and answer.pose == last[0].pose


def answer_agrees(ref: Reference, answer) -> bool:
    """Every tool step of a routed answer matches the reference, and the
    answer comes from the top hit of its last step."""
    for step in answer.trace:
        if step.error is not None or not agrees(pairs(step.hits), ref.expected(step.tool, step.args)):
            return False
    return answer_from_last_step(answer)
