"""Retrieval tools: semantic, positional, and temporal top-k over both stores.

These are the callable surface a planner invokes. Pure top-k, no
relevance threshold: filtering weak hits is planner policy, not tool
policy. Each call reads one consistent store snapshot. ``TOOLS`` declares
all six tools once; the router, its planner and ``lgr query`` read it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .embedding import EmbeddingProvider
from .graph import MemoryGraph
from .model import Pose


@dataclass(frozen=True)
class RetrievalHit:
    """One scored node. Score semantics per tool: cosine similarity for
    semantic search (descending), meters for positional (ascending),
    seconds for temporal (ascending)."""

    node_id: int
    label_text: str
    pose: Pose
    last_seen: float
    score: float

    def to_dict(self) -> dict:
        """The fields by name, ``pose`` as a nested dict; ``lgr query`` prints these."""
        return asdict(self)


def _hits(pairs) -> list[RetrievalHit]:
    return [
        RetrievalHit(
            node_id=node.node_id,
            label_text=node.label_text,
            pose=node.pose,
            last_seen=node.last_seen,
            score=score,
        )
        for node, score in pairs
    ]


def t_semantic(
    graph: MemoryGraph, provider: EmbeddingProvider, query: str, k: int
) -> list[RetrievalHit]:
    """k nodes most similar to the query text, best first.

    The query is embedded with the session provider and compared against
    node label embeddings; ties break toward lower node ids. An empty
    graph returns an empty list.
    """
    if not query:
        raise ValueError("query must be non-empty")
    return _hits(graph.top_semantic(provider.embed(query), k))


def t_position(
    graph: MemoryGraph, x: float, y: float, z: float, k: int
) -> list[RetrievalHit]:
    """k nodes nearest to (x, y, z), nearest first. Yaw plays no part."""
    if not all(math.isfinite(v) for v in (x, y, z)):
        raise ValueError(f"coordinates must be finite, got ({x}, {y}, {z})")
    return _hits(graph.top_position(np.array((x, y, z), dtype=np.float64), k))


def time_components_to_seconds(hh: int, mm: int, ss: int) -> float:
    """Convert hh:mm:ss to session seconds.

    Hours above 23 are accepted (epoch-relative time has no day wrap);
    minutes and seconds must sit in [0, 60).
    """
    if hh < 0 or not (0 <= mm < 60) or not (0 <= ss < 60):
        raise ValueError(f"malformed time components: {hh}:{mm}:{ss}")
    return 3600.0 * hh + 60.0 * mm + float(ss)


def t_time(graph: MemoryGraph, hh: int, mm: int, ss: int, k: int) -> list[RetrievalHit]:
    """k nodes whose last-seen time is closest to hh:mm:ss, closest first."""
    t = time_components_to_seconds(hh, mm, ss)
    return _hits(graph.top_time(t, k))


@dataclass(frozen=True)
class Tool:
    """One built-in tool as a planner sees it.

    ``params`` are (name, JSON type) pairs in call order, ``k`` last;
    ``vector`` marks the caption-store tools; ``run(graph, captions,
    provider, **args)`` answers one call with a list of hits.
    """

    name: str
    description: str
    params: tuple[tuple[str, str], ...]
    vector: bool
    run: Callable[..., list]

    @property
    def cli_name(self) -> str:
        """The ``lgr query`` name: ``t_semantic`` -> ``semantic``."""
        return self.name.removeprefix("t_").replace("_", "-")

    def schema(self) -> dict:
        """Description and typed params, as ``Router.tool_schemas`` lists them."""
        return {
            "description": self.description,
            "params": [{"name": n, "type": t} for n, t in self.params],
        }


_TEXT = (("query", "string"), ("k", "integer"))
_XYZ = (("x", "number"), ("y", "number"), ("z", "number"), ("k", "integer"))

TOOLS: tuple[Tool, ...] = (
    Tool(
        "t_semantic",
        "top-k graph nodes by semantic similarity to a text query",
        _TEXT,
        False,
        lambda graph, captions, provider, query, k: t_semantic(graph, provider, query, k),
    ),
    Tool(
        "t_position",
        "top-k graph nodes nearest to a position (meters)",
        _XYZ,
        False,
        lambda graph, captions, provider, x, y, z, k: t_position(graph, x, y, z, k),
    ),
    Tool(
        "t_time",
        "top-k graph nodes last seen closest to hh:mm:ss",
        (("hh", "integer"), ("mm", "integer"), ("ss", "integer"), ("k", "integer")),
        False,
        lambda graph, captions, provider, hh, mm, ss, k: t_time(graph, hh, mm, ss, k),
    ),
    Tool(
        "captions_text",
        "top-k scene captions by semantic similarity to a text query",
        _TEXT,
        True,
        lambda graph, captions, provider, query, k: captions.query_text(
            provider.embed(query), k
        ),
    ),
    Tool(
        "captions_position",
        "top-k scene captions recorded nearest to a position",
        _XYZ,
        True,
        lambda graph, captions, provider, x, y, z, k: captions.query_position(
            Pose(x, y, z), k
        ),
    ),
    Tool(
        "captions_time",
        "top-k scene captions recorded closest to a session time (seconds)",
        (("t", "number"), ("k", "integer")),
        True,
        lambda graph, captions, provider, t, k: captions.query_time(t, k),
    ),
)
