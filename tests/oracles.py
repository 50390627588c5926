"""Independent reference implementations used as test oracles.

Everything here re-derives rankings and graph state with its own scans,
python sorts, and naive data structures, never the engine's vectorized
paths. Scores on stored (unit-norm) embeddings are plain float64 dot
products, which is the contract the stores promise.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def dot64(a, b) -> float:
    """Clamped unit-vector cosine: a float64 dot held inside [-1, 1]."""
    score = float(np.dot(np.asarray(a, np.float64), np.asarray(b, np.float64)))
    return min(1.0, max(-1.0, score))


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1].

    Accumulates in float64 regardless of input dtype. Mismatched
    dimensions are an error, never a silent truncation.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ValueError(
            f"dimension mismatch: {av.shape} vs {bv.shape}"
        )
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    score = float(np.dot(av, bv)) / (na * nb)
    return min(1.0, max(-1.0, score))


def assert_ranking(got, want, tol=1e-6):
    """Same ids in the same order; scores equal within tolerance."""
    assert [g[0] for g in got] == [w[0] for w in want], (got, want)
    for (_, gs), (_, ws) in zip(got, want):
        assert abs(gs - ws) <= tol, (got, want)


def dist3(p, q) -> float:
    return math.dist((p[0], p[1], p[2]), (q[0], q[1], q[2]))


def hash_embed_per_block(seed: int, dim: int, text: str) -> np.ndarray:
    """``HashProvider(seed, dim).embed(text)`` the long way: one keyed
    BLAKE2b of the whole text plus counter for every eight components,
    each block converted and copied on its own."""
    data = text.encode("utf-8")
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    raw = np.empty(dim, dtype=np.float64)
    filled = block = 0
    while filled < dim:
        digest = hashlib.blake2b(data + block.to_bytes(8, "little"), digest_size=64, key=key).digest()
        words = np.frombuffer(digest, dtype="<u8").astype(np.float64)
        take = min(words.size, dim - filled)
        raw[filled : filled + take] = words[:take]
        filled += take
        block += 1
    v = raw * 2.0**-64 * 2.0 - 1.0
    return (v / float(np.linalg.norm(v))).astype(np.float32)


# ----------------------------------------------------------------------
# full-scan ranking oracles: (id, score) lists in canonical order
# ----------------------------------------------------------------------


def rank_semantic(items, q, k):
    """items: iterable of (id, embedding); descending score, id tie-break."""
    scored = [(i, dot64(e, q)) for i, e in items]
    scored.sort(key=lambda s: (-s[1], s[0]))
    return scored[:k]


def rank_position(items, p, k):
    """items: iterable of (id, (x, y, z)); ascending distance."""
    scored = [(i, dist3(pos, p)) for i, pos in items]
    scored.sort(key=lambda s: (s[1], s[0]))
    return scored[:k]


def rank_time(items, t, k):
    """items: iterable of (id, time); ascending absolute difference."""
    scored = [(i, abs(ti - t)) for i, ti in items]
    scored.sort(key=lambda s: (s[1], s[0]))
    return scored[:k]


def find_matches_naive(nodes, e, p, delta_e, delta_p):
    """nodes: iterable of (id, embedding, position). Both gates, then
    ascending distance with id tie-break."""
    hits = []
    for nid, emb, pos in nodes:
        if dot64(emb, e) > delta_e and dist3(pos, p) <= delta_p:
            hits.append((nid, dist3(pos, p)))
    hits.sort(key=lambda h: (h[1], h[0]))
    return [nid for nid, _ in hits]


# Array-based variants for the large acceptance runs: scores come from a
# different reduction than the engine's (row-products summed / np.linalg
# norms), rankings from python sorts.


def rank_semantic_arrays(ids, matrix, q, k):
    scores = (np.asarray(matrix, np.float64) * np.asarray(q, np.float64)).sum(axis=1)
    scores = np.clip(scores, -1.0, 1.0)
    pairs = sorted(zip(ids, scores.tolist()), key=lambda s: (-s[1], s[0]))
    return pairs[:k]


def rank_position_arrays(ids, positions, p, k):
    d = np.linalg.norm(np.asarray(positions, np.float64) - np.asarray(p, np.float64), axis=1)
    pairs = sorted(zip(ids, d.tolist()), key=lambda s: (s[1], s[0]))
    return pairs[:k]


def rank_time_arrays(ids, times, t, k):
    dt = np.abs(np.asarray(times, np.float64) - float(t))
    pairs = sorted(zip(ids, dt.tolist()), key=lambda s: (s[1], s[0]))
    return pairs[:k]


# ----------------------------------------------------------------------
# naive ingest replay
# ----------------------------------------------------------------------


class ReferenceGraph:
    """Literal, O(n^2) replay of the ingest rules on plain python data.

    Node poses are recomputed as the true arithmetic mean of all matched
    sighting positions (rather than a running mean), which independently
    checks the engine's update formula.
    """

    def __init__(self, delta_p: float, delta_e: float):
        self.delta_p = delta_p
        self.delta_e = delta_e
        self.nodes: list[dict] = []
        self.next_id = 1

    def _mean_pos(self, node) -> tuple[float, float, float]:
        xs = node["sightings"]
        n = len(xs)
        return (
            sum(p[0] for p in xs) / n,
            sum(p[1] for p in xs) / n,
            sum(p[2] for p in xs) / n,
        )

    def _group(self, labels) -> list[list[int]]:
        # transitive closure by BFS over the similarity gate
        n = len(labels)
        seen = [False] * n
        groups = []
        for start in range(n):
            if seen[start]:
                continue
            queue = [start]
            seen[start] = True
            members = []
            while queue:
                i = queue.pop(0)
                members.append(i)
                for j in range(n):
                    if not seen[j] and dot64(labels[i][1], labels[j][1]) > self.delta_e:
                        seen[j] = True
                        queue.append(j)
            groups.append(sorted(members))
        groups.sort(key=lambda g: g[0])
        return groups

    def ingest(self, pose, t, labels):
        """pose: (x, y, z, yaw); labels: list of (text, embedding)."""
        p = (pose[0], pose[1], pose[2])
        snapshot = [
            (node["id"], node["emb"], self._mean_pos(node)) for node in self.nodes
        ]
        claimed: set[int] = set()
        to_update: list[int] = []
        to_create: list[tuple[str, object]] = []
        for members in self._group(labels):
            rep_text, rep_emb = labels[members[0]]
            matched = [
                nid
                for nid in find_matches_naive(
                    snapshot, rep_emb, p, self.delta_e, self.delta_p
                )
                if nid not in claimed
            ]
            k = len(members)
            chosen = matched if k >= len(matched) else matched[:k]
            for nid in chosen:
                claimed.add(nid)
                to_update.append(nid)
            for _ in range(k - len(chosen)):
                to_create.append((rep_text, rep_emb))
        by_id = {node["id"]: node for node in self.nodes}
        for nid in to_update:
            node = by_id[nid]
            node["sightings"].append(p)
            node["last"] = max(node["last"], t)
        for text, emb in to_create:
            self.nodes.append(
                {
                    "id": self.next_id,
                    "text": text,
                    "emb": emb,
                    "yaw": pose[3],
                    "sightings": [p],
                    "first": t,
                    "last": t,
                }
            )
            self.next_id += 1

    def signatures(self):
        """Multiset view: (embedding bytes, obs_count, last_seen, mean pos)."""
        out = []
        for node in self.nodes:
            x, y, z = self._mean_pos(node)
            out.append(
                (
                    np.asarray(node["emb"], np.float32).tobytes(),
                    len(node["sightings"]),
                    node["last"],
                    (x, y, z),
                )
            )
        return out


# ----------------------------------------------------------------------
# strict log reader
# ----------------------------------------------------------------------


def _strict_number(value, what: str) -> float:
    if type(value) not in (int, float):  # a bool is not a JSON number
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _strict_list(obj: dict, key: str, absent):
    value = obj.get(key, absent)
    if value is absent or type(value) is list:
        return value
    raise TypeError(f"{key} must be a list, got {value!r}")


def _strict_pose(p, what: str):
    from lgr import Pose

    if type(p) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {p!r}")
    fields = ("x", p["x"]), ("y", p["y"]), ("z", p.get("z", 0.0)), ("yaw", p.get("yaw", 0.0))
    return Pose(*(_strict_number(v, k) for k, v in fields))


def _strict_record(obj):
    """One line's LogRecord, every vector field decoded on its own."""
    from lgr import LogRecord, decode_vector

    if type(obj) is not dict:
        raise TypeError(f"a record must be a JSON object, got {obj!r}")
    frame_id = obj["frame_id"]
    if type(frame_id) not in (str, int):
        raise TypeError(f"frame_id must be a string or an integer, got {frame_id!r}")
    t = _strict_number(obj["t"], "t")
    pose = _strict_pose(obj["pose"], "pose")
    labels = tuple(_strict_list(obj, "labels", ()))
    caption = obj.get("caption", "")
    if not all(type(s) is str for s in (*labels, caption)):
        raise TypeError("labels and caption must be strings")
    encoded = _strict_list(obj, "label_embeddings", None)
    if encoded is not None and len(encoded) != len(labels):
        raise ValueError(f"{len(encoded)} label_embeddings for {len(labels)} labels")
    label_embeddings = None if encoded is None else tuple(decode_vector(e) for e in encoded)
    caption_embedding = obj.get("caption_embedding")  # a false value means none
    caption_embedding = decode_vector(caption_embedding) if caption_embedding else None
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be non-negative, got {t}")
    return LogRecord(str(frame_id), t, pose, labels, caption, label_embeddings, caption_embedding)


def read_log_strict(path, period=None) -> list:
    """A log's records the slow way, to check the engine's reader against.

    Every line goes through ``json.loads`` and every vector field of every
    line, kept or dropped, through its own ``decode_vector`` call, so no
    array is shared between fields. With ``period``, only the records the
    subsampling rule keeps are returned. The first bad line raises
    ``LogParseError("<path>:<line>: ...")``; a bad vector's message is
    ``decode_vector``'s.
    """
    import json

    from lgr import LogParseError

    records, prev_t, last_kept = [], None, None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = _strict_record(json.loads(line))
                if prev_t is not None and record.t < prev_t:
                    raise ValueError(f"timestamps must be non-decreasing ({record.t} after {prev_t})")
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise LogParseError(f"{path}:{lineno}: {exc}") from None
            prev_t = record.t
            if period is None or last_kept is None or record.t >= last_kept + period:
                last_kept = record.t
                records.append(record)
    return records


# ----------------------------------------------------------------------
# strict QA reader
# ----------------------------------------------------------------------


def _strict_qa_item(obj):
    """One line's QAItem, every field type-checked on its own."""
    from lgr import QAItem

    if type(obj) is not dict:
        raise TypeError(f"a QA item must be a JSON object, got {obj!r}")
    question, kind = obj["question"], obj["kind"]
    if type(question) is not str or type(kind) is not str:
        raise TypeError("question and kind must be strings")
    if kind not in ("spatial", "temporal", "descriptive"):
        raise ValueError(f"unknown kind {kind!r}")
    p, pose = obj.get("gt_pose"), None
    if p:  # a false value means none
        pose = _strict_pose(p, "gt_pose")
    t = obj.get("gt_time")
    gt_time = None if t is None else _strict_number(t, "gt_time")
    if pose is not None and not all(math.isfinite(v) for v in (pose.x, pose.y, pose.z, pose.yaw)):
        raise ValueError(f"gt_pose must be finite, got {pose}")
    if gt_time is not None and not (math.isfinite(gt_time) and gt_time >= 0):
        raise ValueError(f"gt_time must be finite and non-negative, got {gt_time}")
    if kind == "spatial" and pose is None:
        raise ValueError("a spatial item needs gt_pose")
    if kind == "temporal" and gt_time is None:
        raise ValueError("a temporal item needs gt_time")
    return QAItem(question, kind, pose, gt_time)


def read_qa_strict(path) -> list:
    """A QA file's items the slow way, to check ``load_qa_items`` against.

    Blank lines and ``#`` comments are skipped; the first bad line raises
    ``ValueError("<path>:<line>: bad QA item: ...")``.
    """
    import json

    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                items.append(_strict_qa_item(json.loads(line)))
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad QA item: {exc}") from None
    return items


# ----------------------------------------------------------------------
# strict config reader
# ----------------------------------------------------------------------

CONFIG_DEFAULTS = {
    "delta_p": 5.0, "delta_e": 0.75, "subsample_period": 2.0,
    "default_k": 5, "max_planner_iterations": 8, "embedding_dim": 384,
}


def read_config_strict(doc) -> dict:
    """A config document's fields over the defaults, each checked on its
    own, to check ``Config.from_dict`` against. A refused document raises
    ValueError. Integer fields take JSON integers of at least 1; number
    fields JSON numbers a float holds, finite and positive, ``delta_e`` at
    most 1."""
    if type(doc) is not dict:
        raise ValueError(f"a config must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    values = CONFIG_DEFAULTS | doc
    for name, value in values.items():
        if type(CONFIG_DEFAULTS[name]) is int:
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            continue
        try:
            x = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:
            x = math.nan
        if not (math.isfinite(x) and x > 0 and (x <= 1.0 or name != "delta_e")):
            raise ValueError(f"{name} is out of range, got {value!r}")
    return values
