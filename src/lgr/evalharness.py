"""Session metrics: QA items, their JSON-lines files, and scoring.

Spatial answers count as correct within 25 meters of ground truth,
temporal answers within 3 minutes; both gates are closed (<=).
``evaluate`` runs every item through a router and scores its answers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .model import Pose, json_number
from .router import Router

SPATIAL_GATE_M = 25.0
TEMPORAL_GATE_S = 180.0

QA_KINDS = ("spatial", "temporal", "descriptive")


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
        if self.gt_pose is not None and not self.gt_pose.is_finite():
            raise ValueError(f"gt_pose must be finite, got {self.gt_pose}")
        if self.gt_time is not None and not (math.isfinite(self.gt_time) and self.gt_time >= 0):
            raise ValueError(f"gt_time must be finite and non-negative, got {self.gt_time}")

    def to_json_dict(self) -> dict:
        """The fields by name, ``gt_pose`` a nested dict or None: one
        line of a QA file."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "QAItem":
        if not all(isinstance(d[key], str) for key in ("question", "kind")):
            raise TypeError("question and kind must be strings")
        gt_time = d.get("gt_time")
        return cls(
            question=d["question"],
            kind=d["kind"],
            gt_pose=Pose.from_dict(d["gt_pose"]) if d.get("gt_pose") else None,
            gt_time=None if gt_time is None else float(json_number(gt_time, "gt_time")),
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
            except (KeyError, TypeError, AttributeError, OverflowError, ValueError) as exc:
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
        fmt = lambda v: "" if v is None else f"{v:.6f}"
        lines = [("question", "kind", "answered", "correct", "error", "latency_s", "trace")]
        for r in self.rows:
            correct = "" if r.correct is None else str(r.correct)
            trace = "+".join(r.trace)
            cells = (r.question, r.kind, str(r.answered), correct, fmt(r.error), fmt(r.latency))
            lines.append((*cells, trace))
        lines.append((
            "# summary", "", "",
            f"pos_acc={fmt(self.positional_accuracy)} temp_acc={fmt(self.temporal_accuracy)}",
            f"mean_spatial={fmt(self.mean_spatial_error)} mean_temporal={fmt(self.mean_temporal_error)}",
            fmt(self.mean_latency),
            f"fallback={fmt(self.fallback)}",
        ))
        return "\n".join(map("\t".join, lines))


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
        trace = tuple(r.tool for r in answer.trace)
        row = (item.question, item.kind, answered, correct, error, latency, answer.gave_up)
        rows.append(EvalRow(*row, trace))

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
