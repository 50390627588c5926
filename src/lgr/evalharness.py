"""Session metrics and a deterministic synthetic-world generator.

Spatial answers count as correct within 25 meters of ground truth,
temporal answers within 3 minutes; both gates are closed (<=). The
synthetic generator replaces recorded robot sessions at desk scale: it
emits an observation log with known entity ground truth plus the QA items
to score against it.
"""

from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .embedding import HashProvider, l2_normalize
from .logio import LogRecord
from .model import Config, Pose, normalize_yaw
from .router import Router

SPATIAL_GATE_M = 25.0
TEMPORAL_GATE_S = 180.0

QA_KINDS = ("spatial", "temporal", "descriptive")

# cosine margins that build_synonym_fixture checks
SYNONYM_MIN_WITHIN = 0.8
SYNONYM_MAX_ACROSS = 0.5


def spatial_error(pred: Pose, gt: Pose) -> float:
    """Euclidean distance between predicted and true position, meters."""
    if not (pred.is_finite() and gt.is_finite()):
        raise ValueError("poses must be finite")
    return math.dist((pred.x, pred.y, pred.z), (gt.x, gt.y, gt.z))


def temporal_error(pred: float, gt: float) -> float:
    """Absolute difference between predicted and true time, seconds."""
    if pred < 0 or gt < 0:
        raise ValueError("timestamps must be non-negative")
    return abs(pred - gt)


@dataclass(frozen=True)
class QAItem:
    """One evaluation question with its ground truth."""

    question: str
    kind: str
    gt_pose: Optional[Pose] = None
    gt_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QA_KINDS:
            raise ValueError(f"kind must be one of {QA_KINDS}, got {self.kind!r}")
        if self.kind == "spatial" and self.gt_pose is None:
            raise ValueError("spatial items need gt_pose")
        if self.kind == "temporal" and self.gt_time is None:
            raise ValueError("temporal items need gt_time")

    def to_json_dict(self) -> dict:
        """The fields by name, ``gt_pose`` a nested dict or None: one
        line of a QA file."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "QAItem":
        return cls(
            question=str(d["question"]),
            kind=str(d["kind"]),
            gt_pose=Pose.from_dict(d["gt_pose"]) if d.get("gt_pose") else None,
            gt_time=float(d["gt_time"]) if d.get("gt_time") is not None else None,
        )


def load_qa_items(path: str | Path) -> list[QAItem]:
    """Read QA items from a JSON-lines file."""
    items = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                items.append(QAItem.from_json_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad QA item: {exc}") from None
    return items


def save_qa_items(items: Sequence[QAItem], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(item.to_json_dict(), sort_keys=True))
            fh.write("\n")


@dataclass(frozen=True)
class EvalRow:
    question: str
    kind: str
    answered: bool
    correct: Optional[bool]
    error: Optional[float]
    latency: float
    gave_up: bool
    trace: tuple[str, ...]


@dataclass(frozen=True)
class EvalReport:
    """Aggregated metrics plus one row per item.

    Accuracies count unanswered items as incorrect; mean errors cover
    answered items only, so the distance metric and the gate metric are
    both visible. Descriptive items carry no automatic correctness.
    """

    positional_accuracy: Optional[float]
    temporal_accuracy: Optional[float]
    mean_spatial_error: Optional[float]
    mean_temporal_error: Optional[float]
    mean_latency: float
    fallback: Optional[float]
    rows: tuple[EvalRow, ...]

    def to_dict(self) -> dict:
        """The fields by name, each row a dict of its own fields; ``lgr
        eval`` prints this."""
        return asdict(self)

    def to_table(self) -> str:
        """Tab-separated per-item table with a trailing summary line."""
        header = "\t".join(
            ("question", "kind", "answered", "correct", "error", "latency_s", "trace")
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                "\t".join(
                    (
                        r.question,
                        r.kind,
                        str(r.answered),
                        "" if r.correct is None else str(r.correct),
                        "" if r.error is None else f"{r.error:.6f}",
                        f"{r.latency:.6f}",
                        "+".join(r.trace),
                    )
                )
            )
        fmt = lambda v: "" if v is None else f"{v:.6f}"
        lines.append(
            "\t".join(
                (
                    "# summary",
                    "",
                    "",
                    f"pos_acc={fmt(self.positional_accuracy)} temp_acc={fmt(self.temporal_accuracy)}",
                    f"mean_spatial={fmt(self.mean_spatial_error)} mean_temporal={fmt(self.mean_temporal_error)}",
                    f"{self.mean_latency:.6f}",
                    f"fallback={fmt(self.fallback)}",
                )
            )
        )
        return "\n".join(lines)


def evaluate(router: Router, items: Sequence[QAItem]) -> EvalReport:
    """Run every item through the router and score the answers.

    Read-only with respect to the stores; only the router's session stats
    move. Latency is wall-clock around ``answer_query`` alone, the stores
    being prebuilt.
    """
    if not items:
        raise ValueError("cannot evaluate an empty item list")
    q0, v0 = router.stats.n_queries, router.stats.n_vector_calls
    rows: list[EvalRow] = []
    for item in items:
        t0 = time.perf_counter()
        answer = router.answer_query(item.question)
        latency = time.perf_counter() - t0
        error: Optional[float] = None
        correct: Optional[bool] = None
        answered = False
        if item.kind == "spatial":
            if answer.pose is not None:
                answered = True
                error = spatial_error(answer.pose, item.gt_pose)
                correct = error <= SPATIAL_GATE_M
            else:
                correct = False
        elif item.kind == "temporal":
            if answer.time is not None:
                answered = True
                error = temporal_error(answer.time, item.gt_time)
                correct = error <= TEMPORAL_GATE_S
            else:
                correct = False
        else:
            answered = not answer.gave_up
        rows.append(
            EvalRow(
                question=item.question,
                kind=item.kind,
                answered=answered,
                correct=correct,
                error=error,
                latency=latency,
                gave_up=answer.gave_up,
                trace=tuple(r.tool for r in answer.trace),
            )
        )

    def _accuracy(kind: str) -> Optional[float]:
        scored = [r for r in rows if r.kind == kind]
        if not scored:
            return None
        return sum(1 for r in scored if r.correct) / len(scored)

    def _mean_error(kind: str) -> Optional[float]:
        errs = [r.error for r in rows if r.kind == kind and r.error is not None]
        return sum(errs) / len(errs) if errs else None

    dq = router.stats.n_queries - q0
    dv = router.stats.n_vector_calls - v0
    return EvalReport(
        positional_accuracy=_accuracy("spatial"),
        temporal_accuracy=_accuracy("temporal"),
        mean_spatial_error=_mean_error("spatial"),
        mean_temporal_error=_mean_error("temporal"),
        mean_latency=sum(r.latency for r in rows) / len(rows),
        fallback=(dv / dq) if dq else None,
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# synthetic worlds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorldEntity:
    label: str
    pose: Pose


@dataclass(frozen=True)
class SyntheticWorld:
    """Ground truth for a generated session.

    ``visibility_radius`` should stay at or below half of ``delta_p`` so
    every sighting of a stationary entity keeps matching the node's
    running-mean pose and exactly one node per entity survives dedup.
    ``synonyms`` maps an entity label to the alternative spellings a
    sighting may use; every alternative must live in the fixture
    embedding table used at ingest.
    """

    entities: tuple[WorldEntity, ...]
    trajectory: tuple[tuple[float, Pose], ...]
    visibility_radius: float = 2.4
    synonyms: Optional[Mapping[str, Sequence[str]]] = None


def _interpolate(trajectory: Sequence[tuple[float, Pose]], t: float) -> Pose:
    times = [wt for wt, _ in trajectory]
    if t <= times[0]:
        return trajectory[0][1]
    if t >= times[-1]:
        return trajectory[-1][1]
    i = bisect_right(times, t) - 1
    t0, p0 = trajectory[i]
    t1, p1 = trajectory[i + 1]
    if t1 == t0:
        return p1
    a = (t - t0) / (t1 - t0)
    dx, dy = p1.x - p0.x, p1.y - p0.y
    yaw = normalize_yaw(math.atan2(dy, dx)) if (dx or dy) else p0.yaw
    return Pose(
        x=p0.x + a * dx,
        y=p0.y + a * dy,
        z=p0.z + a * (p1.z - p0.z),
        yaw=yaw,
    )


def generate_synthetic_session(
    seed: int,
    world: SyntheticWorld,
    cfg: Optional[Config] = None,
) -> tuple[list[LogRecord], list[QAItem]]:
    """Emit a subsampled observation log plus QA items with ground truth.

    Frames fall every ``cfg.subsample_period`` seconds along the
    trajectory; each frame lists the entities within visibility radius of
    the interpolated robot pose, renamed through the synonym table when
    one is configured. The same seed always produces a byte-identical
    log. Spatial ground truth is the entity's true pose, temporal ground
    truth its last visible frame time.
    """
    if cfg is None:
        cfg = Config()
    if not world.entities:
        raise ValueError("world has no entities")
    if len(world.trajectory) < 1:
        raise ValueError("world has no trajectory")
    duration = world.trajectory[-1][0] - world.trajectory[0][0]
    if duration <= 0:
        raise ValueError(f"trajectory duration must be > 0, got {duration}")
    rng = random.Random(seed)
    period = cfg.subsample_period
    t_start = world.trajectory[0][0]
    n_frames = int(math.floor(duration / period + 1e-9)) + 1
    records: list[LogRecord] = []
    last_sighting: dict[str, float] = {}
    for i in range(n_frames):
        t = t_start + i * period
        pose = _interpolate(world.trajectory, t)
        labels: list[str] = []
        for entity in world.entities:
            if spatial_error(entity.pose, pose) <= world.visibility_radius:
                name = entity.label
                if world.synonyms and entity.label in world.synonyms:
                    name = rng.choice(list(world.synonyms[entity.label]))
                labels.append(name)
                last_sighting[entity.label] = t
        caption = (
            "the robot sees " + ", ".join(labels)
            if labels
            else "nothing notable nearby"
        )
        records.append(
            LogRecord(
                frame_id=f"frame-{i:05d}",
                t=t,
                pose=pose,
                labels=tuple(labels),
                caption=caption,
            )
        )
    items: list[QAItem] = []
    for entity in world.entities:
        if entity.label not in last_sighting:
            continue
        items.append(
            QAItem(
                question=f"where is the {entity.label}?",
                kind="spatial",
                gt_pose=entity.pose,
            )
        )
        items.append(
            QAItem(
                question=f"when did you last see the {entity.label}?",
                kind="temporal",
                gt_time=last_sighting[entity.label],
            )
        )
    return records, items


def grid_tour_world(
    labels: Sequence[str],
    spacing: float = 30.0,
    duration: float = 600.0,
    visibility_radius: float = 2.4,
    synonyms: Optional[Mapping[str, Sequence[str]]] = None,
) -> SyntheticWorld:
    """Entities on a serpentine grid, visited in order at constant pace.

    The trajectory passes through every entity position, so full coverage
    is guaranteed; consecutive entities sit ``spacing`` meters apart.
    """
    if not labels:
        raise ValueError("need at least one label")
    n = len(labels)
    cols = max(1, math.ceil(math.sqrt(n)))
    entities = []
    for i, label in enumerate(labels):
        row, col = divmod(i, cols)
        if row % 2 == 1:
            col = cols - 1 - col
        entities.append(WorldEntity(label, Pose(x=col * spacing, y=row * spacing)))
    if n == 1:
        trajectory = ((0.0, entities[0].pose), (duration, entities[0].pose))
    else:
        step = duration / (n - 1)
        trajectory = tuple((j * step, entities[j].pose) for j in range(n))
    return SyntheticWorld(
        entities=tuple(entities),
        trajectory=trajectory,
        visibility_radius=visibility_radius,
        synonyms=synonyms,
    )


def build_synonym_fixture(
    labels: Sequence[str],
    alternatives: int = 3,
    dim: int = 384,
    seed: int = 0,
) -> tuple[dict[str, np.ndarray], dict[str, tuple[str, ...]]]:
    """Fixture table where each label gains near-duplicate spellings.

    Every alternative's embedding is a small perturbation of the label's
    base vector, so within-entity similarities land above ``SYNONYM_MIN_WITHIN``
    while distinct labels stay below ``SYNONYM_MAX_ACROSS``. Raises if the
    deterministic construction misses those margins.
    """
    base = HashProvider(seed=seed, dim=dim)
    table: dict[str, np.ndarray] = {}
    synonyms: dict[str, tuple[str, ...]] = {}
    for label in labels:
        anchor = base.embed(label).astype(np.float64)
        names = [label] + [f"{label} (alt {j})" for j in range(1, alternatives)]
        vectors = [anchor]
        for name in names[1:]:
            tilt = base.embed(f"{label}::{name}").astype(np.float64)
            vectors.append(np.asarray(l2_normalize(anchor + 0.25 * tilt), np.float64))
        for name, vec in zip(names, vectors):
            table[name] = l2_normalize(vec)
        synonyms[label] = tuple(names)
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                sim = float(np.dot(vectors[a], vectors[b]))
                if sim < SYNONYM_MIN_WITHIN:
                    raise ValueError(
                        f"synonym pair for {label!r} too far apart ({sim:.3f})"
                    )
    mat = np.stack([v.astype(np.float64) for v in table.values()])
    names = list(table)
    sims = mat @ mat.T
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            if a.split(" (alt")[0] != names[j].split(" (alt")[0]:
                if sims[i, j] > SYNONYM_MAX_ACROSS:
                    raise ValueError(
                        f"labels {a!r} and {names[j]!r} too similar ({sims[i, j]:.3f})"
                    )
    return table, synonyms
