"""Synthetic sessions and a scripted planner for the tests.

A synthetic world stands in for a recorded robot session at desk scale:
``generate_synthetic_session`` emits an observation log with known
entity ground truth plus the QA items to score against it.
``ScriptedPlanner`` replays fixed tool calls, so a test reads as the
literal sequence of calls it makes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from lgr import (
    Config,
    GiveUpAction,
    HashProvider,
    LogRecord,
    Planner,
    Pose,
    QAItem,
    ToolResult,
    l2_normalize,
    normalize_yaw,
    spatial_error,
)
from lgr.router import Action

# cosine margins that build_synonym_fixture checks
SYNONYM_MIN_WITHIN = 0.8
SYNONYM_MAX_ACROSS = 0.5


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


class ScriptedPlanner(Planner):
    """Replays a fixed action sequence per query.

    Intended for offline traces and accounting tests: the action at index
    ``len(context)`` runs next, so scripts read as the literal sequence of
    tool calls followed by a final answer.
    """

    def __init__(
        self,
        scripts: Mapping[str, Sequence[Action]],
        default: Sequence[Action] = (),
    ):
        self._scripts = {q: tuple(a) for q, a in scripts.items()}
        self._default = tuple(default)

    def next_action(self, query: str, context: Sequence[ToolResult]) -> Action:
        script = self._scripts.get(query, self._default)
        step = len(context)
        if step < len(script):
            return script[step]
        return GiveUpAction("script exhausted")
