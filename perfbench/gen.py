"""Seeded, vectorised input generation for the benchmark workloads.

The world rules follow ``lgr.evalharness.grid_tour_world`` and
``generate_synthetic_session``: entities sit on a serpentine grid, the
robot visits them in order at constant pace, an entity is sighted when it
lies within a visibility radius of at most ``delta_p / 2`` of the robot,
and the ground truth of a question is the entity's true pose and the time
of its last sighting in a kept frame. Poses, sightings and ground truth
are computed with numpy over all frames at once, so a 40k-line session is
built in seconds instead of the minute ``generate_synthetic_session``
needs. Nothing here is timed by the benchmark.

Every label is unique to one entity, so a correct engine ends with one
graph node per entity seen. About a quarter of the vocabulary carries
digits (``shelf 12``), routing words (``bakotu place``) or several words
(``red bakotu``), as real inventories do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lgr import (
    Caption,
    CaptionRecord,
    Config,
    EntityNode,
    HashProvider,
    Label,
    Observation,
    Pose,
    QAItem,
    encode_vector,
)

SYLLABLES = tuple(
    c + v for c in "bdfgklmnprstvz" for v in "aeiou"
)  # 70 syllables, 343k three-syllable words
ADJECTIVES = (
    "red", "blue", "green", "wooden", "metal", "small",
    "large", "old", "plastic", "glass", "broken", "yellow",
)
NOUNS = (
    "shelf", "rack", "door", "bay", "desk", "locker",
    "bin", "gate", "aisle", "pillar", "cabinet", "crate",
)
# Words a question router commonly treats as routing vocabulary rather
# than subject matter ("parking place", "time clock").
ROUTING_WORDS = ("place", "time", "position", "location", "spot", "first", "last")
FUNCTION_WORDS = frozenset(ROUTING_WORDS) | {"a", "an", "the", "of", "at", "in", "on"}

VISIBILITY_RADIUS = 2.4  # <= Config().delta_p / 2
SPACING = 4.0  # neighbouring entities overlap in view for a short stretch
SEGMENT_S = 10.0  # seconds the robot takes from one entity to the next
KEPT_PERIOD = Config().subsample_period
RAW_PERIOD = KEPT_PERIOD / 4  # the raw log is written at 4x the kept rate


# ----------------------------------------------------------------------
# vocabulary
# ----------------------------------------------------------------------


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct three-syllable words that are no function word."""
    s = len(SYLLABLES)
    idx = rng.choice(s**3, size=n + 16, replace=False)
    words = [
        SYLLABLES[i // (s * s)] + SYLLABLES[(i // s) % s] + SYLLABLES[i % s]
        for i in idx.tolist()
    ]
    return [w for w in words if w not in FUNCTION_WORDS][:n]


@dataclass(frozen=True)
class Vocabulary:
    labels: tuple[str, ...]  # one per entity, in tour order
    absent: tuple[str, ...]  # words no entity carries

    def shares(self) -> dict:
        n = len(self.labels)
        tokens = [lab.split() for lab in self.labels]
        return {
            "labels": n,
            "digit_share": sum(any(c.isdigit() for c in lab) for lab in self.labels) / n,
            "routing_word_share": sum(any(t in FUNCTION_WORDS for t in ts) for ts in tokens) / n,
            "multi_word_share": sum(len(ts) > 1 for ts in tokens) / n,
        }


def vocabulary(rng: np.random.Generator, n: int, n_absent: int, adversarial: bool) -> Vocabulary:
    """Unique labels in random tour order; a quarter adversarial if asked.

    The adversarial quarter splits evenly into digit labels, labels
    carrying a routing word, and plain multi-word labels.
    """
    n_adv = n // 4 if adversarial else 0
    n_digit = n_adv // 3
    n_route = n_adv // 3
    n_multi = n_adv - n_digit - n_route
    words = pseudo_words(rng, n - n_digit + n_absent)
    absent, words = words[:n_absent], words[n_absent:]
    pairs = rng.choice(len(NOUNS) * 999, size=n_digit, replace=False)
    labels = [f"{NOUNS[p // 999]} {p % 999 + 1}" for p in pairs.tolist()]
    route = rng.integers(len(ROUTING_WORDS), size=n_route)
    for w, r in zip(words[:n_route], route.tolist()):
        rw = ROUTING_WORDS[r]
        labels.append(f"{rw} {w}" if r % 2 else f"{w} {rw}")
    words = words[n_route:]
    adj = rng.integers(len(ADJECTIVES), size=n_multi)
    labels += [f"{ADJECTIVES[a]} {w}" for a, w in zip(adj.tolist(), words[:n_multi])]
    labels += words[n_multi:]
    order = rng.permutation(len(labels))
    return Vocabulary(tuple(labels[i] for i in order.tolist()), tuple(absent))


# ----------------------------------------------------------------------
# the tour
# ----------------------------------------------------------------------


def serpentine(n: int, spacing: float = SPACING) -> np.ndarray:
    """(n, 3) entity positions on a serpentine grid, in visiting order."""
    cols = max(1, math.ceil(math.sqrt(n)))
    row, col = np.divmod(np.arange(n), cols)
    col = np.where(row % 2 == 1, cols - 1 - col, col)
    return np.stack([col * spacing, row * spacing, np.zeros(n)], axis=1).astype(np.float64)


@dataclass(frozen=True)
class Tour:
    """Robot poses and sightings for a list of frame times."""

    entities: np.ndarray  # (n, 3) true entity positions
    times: np.ndarray  # (f,)
    pos: np.ndarray  # (f, 3) robot positions
    yaw: np.ndarray  # (f,)
    cand: np.ndarray  # (f, 4) candidate entity indices, ascending
    seen: np.ndarray  # (f, 4) bool: candidate within the visibility radius

    def sighted(self, f: int) -> list[int]:
        return self.cand[f][self.seen[f]].tolist()

    def last_sighting(self, frames: np.ndarray) -> np.ndarray:
        """Per entity, the time of its last sighting among ``frames`` (-1: never)."""
        last = np.full(len(self.entities), -1.0)
        seen = self.seen[frames]
        t = np.broadcast_to(self.times[frames][:, None], seen.shape)
        np.maximum.at(last, self.cand[frames][seen], t[seen])
        return last


def tour(n_entities: int, times: np.ndarray, segment_s: float = SEGMENT_S) -> Tour:
    """Visit ``n_entities`` in order, one every ``segment_s`` seconds.

    Every entity other than the two bounding the current leg stays at least
    ``SPACING`` > radius away from it, so the two endpoints and their
    neighbours are the only candidates a frame needs to test.
    """
    ent = serpentine(n_entities)
    s = times / segment_s
    i = np.clip(np.floor(s).astype(np.int64), 0, n_entities - 2)
    a = np.clip(s - i, 0.0, 1.0)
    leg = ent[i + 1] - ent[i]
    pos = ent[i] + a[:, None] * leg
    yaw = np.arctan2(leg[:, 1], leg[:, 0])
    yaw = np.where(yaw >= np.pi, yaw - 2 * np.pi, yaw)
    cand = np.clip(i[:, None] + np.arange(-1, 3)[None, :], 0, n_entities - 1)
    dist = np.linalg.norm(ent[cand] - pos[:, None, :], axis=2)
    seen = dist <= VISIBILITY_RADIUS
    seen[:, 1:] &= cand[:, 1:] != cand[:, :-1]  # clipping repeats an index
    return Tour(ent, times, pos, yaw, cand, seen)


def caption_text(labels: list[str]) -> str:
    return "the robot sees " + ", ".join(labels) if labels else "nothing notable nearby"


class Base64Vectors:
    """Base64 log form of the session provider's vectors, one encoding per text."""

    def __init__(self, seed: int, dim: int):
        self._provider = HashProvider(seed=seed, dim=dim)
        self._b64: dict[str, str] = {}

    def __call__(self, text: str) -> str:
        out = self._b64.get(text)
        if out is None:
            out = self._b64[text] = encode_vector(self._provider.embed(text))
        return out


def qa_items(
    rng: np.random.Generator,
    vocab: Vocabulary,
    t: Tour,
    last: np.ndarray,
    n_entities: int,
) -> list[QAItem]:
    """Where/when items for a sample of seen entities, plus absent items.

    The sample takes each label class (plain, digit, routing word,
    multi-word) in its vocabulary share, so accuracy does not swing with
    which labels a seed happens to draw. One item in twenty-one asks about a
    label no entity carries; those can only be answered from captions.
    """
    seen = np.nonzero(last >= 0)[0]

    def klass(label: str) -> int:
        toks = label.split()
        if any(c.isdigit() for c in label):
            return 1
        if any(w in FUNCTION_WORDS for w in toks):
            return 2
        return 3 if len(toks) > 1 else 0

    classes = np.array([klass(vocab.labels[j]) for j in seen.tolist()])
    picked: list[int] = []
    for c in range(4):
        members = seen[classes == c]
        take = min(len(members), round(n_entities * len(members) / len(seen)))
        picked += rng.choice(members, size=take, replace=False).tolist()
    items = []
    for j in picked:
        label = vocab.labels[j]
        x, y, z = t.entities[j].tolist()
        items.append(QAItem(f"where is the {label}?", "spatial", gt_pose=Pose(x, y, z)))
        items.append(
            QAItem(f"when did you last see the {label}?", "temporal", gt_time=float(last[j]))
        )
    n_absent = max(1, len(items) // 20)
    for w in rng.choice(len(vocab.absent), size=n_absent, replace=False).tolist():
        items.append(QAItem(f"describe the {vocab.absent[w]}", "descriptive"))
    order = rng.permutation(len(items))
    return [items[i] for i in order.tolist()]


# ----------------------------------------------------------------------
# replay_eval: a raw JSONL log with precomputed vectors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayInputs:
    log_path: Path
    lines: int
    kept: int
    entities_seen: int
    items: list[QAItem]
    vocab: Vocabulary
    extent: float  # entities lie in [0, extent]^2
    span_s: float  # session length
    provider_seed: int


def replay_inputs(seed: int, workdir: Path, lines: int, eval_entities: int) -> ReplayInputs:
    """Write a raw log of ``lines`` records at 4x the subsample rate.

    Label and caption vectors are precomputed into every line, so the
    engine never calls the stand-in hash encoder while ingesting.
    """
    rng = np.random.default_rng([seed, 1])
    cfg = Config()
    kept = (lines + 3) // 4
    n_entities = max(2, round(kept * KEPT_PERIOD / SEGMENT_S))
    vocab = vocabulary(rng, n_entities, max(8, n_entities // 10), adversarial=True)
    times = np.arange(lines) * RAW_PERIOD
    t = tour(n_entities, times, segment_s=times[-1] / (n_entities - 1))
    b64 = Base64Vectors(seed, cfg.embedding_dim)
    path = workdir / "replay.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for f in range(lines):
            labels = [vocab.labels[j] for j in t.sighted(f)]
            caption = caption_text(labels)
            x, y, z = t.pos[f].tolist()
            record = {
                "frame_id": f"frame-{f:06d}",
                "t": float(times[f]),
                "pose": {"x": x, "y": y, "z": z, "yaw": float(t.yaw[f])},
                "labels": labels,
                "caption": caption,
                "label_embeddings": [b64(lab) for lab in labels],
                "caption_embedding": b64(caption),
            }
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())  # write the log back now, not during the measured phase
    last = t.last_sighting(np.arange(0, lines, 4))  # the frames subsample keeps
    items = qa_items(rng, vocab, t, last, eval_entities)
    return ReplayInputs(
        path, lines, kept, int((last >= 0).sum()), items, vocab,
        float(t.entities[:, :2].max()), float(times[-1]), seed,
    )


# ----------------------------------------------------------------------
# live_session: prebuilt observations continuing one tour
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LiveInputs:
    base: list[Observation]  # ingested before the run and snapshotted
    stretch: list[Observation]  # applied by the writer thread
    vocab: Vocabulary
    tour: Tour
    provider_seed: int


def live_inputs(seed: int, base_frames: int, stretch_frames: int) -> LiveInputs:
    rng = np.random.default_rng([seed, 3])
    cfg = Config()
    total = base_frames + stretch_frames
    n_entities = max(2, math.ceil(total * KEPT_PERIOD / SEGMENT_S) + 1)
    vocab = vocabulary(rng, n_entities, max(8, n_entities // 10), adversarial=True)
    times = np.arange(total) * KEPT_PERIOD
    t = tour(n_entities, times)
    provider = HashProvider(seed=seed, dim=cfg.embedding_dim)
    label_objs = [None] * n_entities
    captions: dict[str, Caption] = {}
    obs = []
    for f in range(total):
        idx = t.sighted(f)
        for j in idx:
            if label_objs[j] is None:
                label_objs[j] = Label(vocab.labels[j], provider.embed(vocab.labels[j]))
        labels = tuple(label_objs[j] for j in idx)
        text = caption_text([lab.text for lab in labels])
        cap = captions.get(text)
        if cap is None:
            cap = captions[text] = Caption(text, provider.embed(text))
        x, y, z = t.pos[f].tolist()
        obs.append(
            Observation(
                frame_id=f"frame-{f:06d}",
                pose=Pose(x, y, z, float(t.yaw[f])),
                time=float(times[f]),
                labels=labels,
                caption=cap,
            )
        )
    return LiveInputs(obs[:base_frames], obs[base_frames:], vocab, t, seed)


# ----------------------------------------------------------------------
# recall_100k: restored stores from seeded arrays
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecallArrays:
    """The seeded columns both stores are restored from."""

    label: np.ndarray  # vocabulary index per graph row
    graph_emb: np.ndarray  # (n, dim) float32, row i is node i + 1
    pos: np.ndarray
    yaw: np.ndarray
    first: np.ndarray
    last: np.ndarray
    counts: np.ndarray
    cap_emb: np.ndarray
    cap_pos: np.ndarray
    cap_time: np.ndarray
    seen: np.ndarray  # vocabulary index per caption row
    vocab: Vocabulary
    duplicate_share: float
    extent: float
    span_s: float
    provider_seed: int


@dataclass(frozen=True)
class RecallInputs:
    nodes: list[EntityNode]
    records: list[CaptionRecord]
    stretch: list[Observation]  # frames ingested after the reads
    vocab: Vocabulary
    duplicate_share: float
    extent: float
    span_s: float
    provider_seed: int


def recall_arrays(seed: int, rows: int, vocab_size: int, duplicate_share: float = 0.1) -> RecallArrays:
    """Columns of a graph and a caption store of ``rows`` rows each.

    Graph labels repeat (``rows / vocab_size`` instances per label), and a
    ``duplicate_share`` of graph rows copy an earlier row exactly, so both
    score ties and full-row ties reach the id tie-break. Caption times
    increase with record id, as in an append-only session.
    """
    rng = np.random.default_rng([seed, 2])
    cfg = Config()
    dim = cfg.embedding_dim
    vocab = vocabulary(rng, vocab_size, max(8, vocab_size // 4), adversarial=False)
    provider = HashProvider(seed=seed, dim=dim)
    vocab_emb = np.stack([provider.embed(w) for w in vocab.labels])
    extent = 500.0
    label = rng.integers(vocab_size, size=rows)
    pos = np.column_stack(
        [rng.uniform(-extent, extent, size=(rows, 2)), rng.uniform(0.0, 3.0, size=rows)]
    )
    gaps = rng.exponential(0.5, size=rows)
    cap_time = np.cumsum(gaps)
    span = float(cap_time[-1])
    last = rng.uniform(0.0, span, size=rows)
    first = np.maximum(last - rng.uniform(0.0, 600.0, size=rows), 0.0)
    counts = rng.integers(1, 6, size=rows)
    yaw = rng.uniform(-np.pi, np.pi, size=rows)
    dup = np.nonzero(rng.random(rows) < duplicate_share)[0]
    dup = dup[dup > 0]
    src = (rng.random(dup.size) * dup).astype(np.int64)  # an earlier row
    for arr in (label, pos, yaw, first, last, counts):
        for d, s in zip(dup.tolist(), src.tolist()):  # ascending: chains resolve
            arr[d] = arr[s]
    cap_emb = rng.standard_normal((rows, dim), dtype=np.float32)
    cap_emb /= np.linalg.norm(cap_emb, axis=1, keepdims=True)
    cap_pos = np.column_stack(
        [rng.uniform(-extent, extent, size=(rows, 2)), rng.uniform(0.0, 3.0, size=rows)]
    )
    seen = rng.integers(vocab_size, size=rows)
    return RecallArrays(
        label, vocab_emb[label], pos, yaw, first, last, counts, cap_emb, cap_pos, cap_time, seen,
        vocab, dup.size / rows, extent, span, seed,
    )


def recall_stretch(a: RecallArrays, frames: int) -> list[Observation]:
    """Frames that continue the recalled session, one label and caption each.

    Even frames re-sight a graph row: its label at its exact position, so
    the lowest-id row of that exact (label, position) group is the nearest
    match and is updated. Each such frame picks a group no other frame
    picks. Odd frames sight a label no row carries, each in its own 10 m
    cell (twice ``delta_p``), so each creates a node.
    """
    cfg = Config()
    rng = np.random.default_rng([a.provider_seed, 4])
    provider = HashProvider(seed=a.provider_seed, dim=cfg.embedding_dim)
    _, first = np.unique(np.column_stack([a.label, a.pos]), axis=0, return_index=True)
    rows = rng.choice(first, size=(frames + 1) // 2, replace=False).tolist()
    cells = max(1, int(2 * a.extent // 10))
    obs = []
    for j in range(frames):
        if j % 2 == 0:
            r = rows[j // 2]
            text = a.vocab.labels[a.label[r]]
            x, y, z = a.pos[r].tolist()
        else:
            c = j // 2
            text = a.vocab.absent[c % len(a.vocab.absent)]
            x, y, z = -a.extent + 5.0 + 10.0 * (c % cells), -a.extent + 5.0 + 10.0 * (c // cells % cells), 1.0
        cap = caption_text([text])
        obs.append(
            Observation(
                frame_id=f"stretch-{j:06d}",
                pose=Pose(x, y, z, 0.0),
                time=a.span_s + KEPT_PERIOD * (j + 1),
                labels=(Label(text, provider.embed(text)),),
                caption=Caption(cap, provider.embed(cap)),
            )
        )
    return obs


def recall_inputs(seed: int, rows: int, vocab_size: int, frames: int) -> RecallInputs:
    """The rows ``MemoryGraph.restore`` and ``CaptionStore.restore`` take,
    and ``frames`` stretch frames."""
    a = recall_arrays(seed, rows, vocab_size)
    labels = a.vocab.labels
    nodes = [
        EntityNode(
            node_id=i + 1,
            label_text=labels[lab],
            embedding=a.graph_emb[i],
            pose=Pose(p[0], p[1], p[2], w),
            first_seen=f,
            last_seen=l,
            obs_count=c,
        )
        for i, (lab, p, w, f, l, c) in enumerate(
            zip(a.label.tolist(), a.pos.tolist(), a.yaw.tolist(), a.first.tolist(), a.last.tolist(), a.counts.tolist())
        )
    ]
    records = [
        CaptionRecord(
            record_id=i + 1,
            text=caption_text([labels[s]]),
            embedding=a.cap_emb[i],
            pose=Pose(p[0], p[1], p[2], 0.0),
            time=tm,
        )
        for i, (s, p, tm) in enumerate(zip(a.seen.tolist(), a.cap_pos.tolist(), a.cap_time.tolist()))
    ]
    return RecallInputs(
        nodes, records, recall_stretch(a, frames), a.vocab, a.duplicate_share, a.extent, a.span_s, a.provider_seed
    )
