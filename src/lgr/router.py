"""Bounded reasoning loop over a registered tool surface.

The router runs a pluggable planner for at most ``max_planner_iterations``
actions per query, feeding every tool result back into the planner's
context. Graph tools are preferred; queries that touch any caption-store
tool at least once are counted toward the vector-fallback rate
(n_vector_calls / n_queries).
"""

from __future__ import annotations

import re
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Mapping, Optional, Sequence, Union

from .captions import CaptionHit, CaptionStore
from .embedding import EmbeddingProvider
from .graph import MemoryGraph
from .model import Config, Pose
from .tools import TOOLS, RetrievalHit, time_components_to_seconds

GRAPH_TOOLS = tuple(t.name for t in TOOLS if not t.vector)
VECTOR_TOOLS = tuple(t.name for t in TOOLS if t.vector)


# ----------------------------------------------------------------------
# planner actions and results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CallTool:
    tool: str
    args: Mapping[str, object]


@dataclass(frozen=True)
class AnswerAction:
    text: str = ""
    pose: Optional[Pose] = None
    time: Optional[float] = None


@dataclass(frozen=True)
class GiveUpAction:
    reason: str = ""


Action = Union[CallTool, AnswerAction, GiveUpAction]


@dataclass(frozen=True)
class ToolResult:
    """Outcome of one tool call, as appended to the planner context."""

    tool: str
    args: dict
    hits: Optional[list]
    error: Optional[str]
    vector: bool

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class Answer:
    """Final response for one query, with the full tool-call trace."""

    text: str
    pose: Optional[Pose]
    time: Optional[float]
    trace: tuple[ToolResult, ...]
    elapsed: float
    gave_up: bool = False
    truncated: bool = False

    def to_dict(self) -> dict:
        """The fields by name, nested values as dicts, less each trace
        step's ``vector`` flag; ``lgr query ... route`` prints this."""
        d = asdict(self)
        for step in d["trace"]:
            del step["vector"]
        return d


class Planner(ABC):
    """Decides the next action from the query and the tool results so far."""

    @abstractmethod
    def next_action(self, query: str, context: Sequence[ToolResult]) -> Action:
        ...


# ----------------------------------------------------------------------
# session accounting
# ----------------------------------------------------------------------


@dataclass
class SessionStats:
    """Counters behind the fallback rate, plus latency telemetry.

    ``n_vector_calls`` counts queries that touched the caption store at
    least once, not individual caption-store calls.
    """

    n_queries: int = 0
    n_vector_calls: int = 0
    latencies: list[float] = field(default_factory=list)
    traces: list[tuple[str, ...]] = field(default_factory=list)

    def record(self, trace: Sequence[str], latency: float, used_vector: bool) -> None:
        self.n_queries += 1
        if used_vector:
            self.n_vector_calls += 1
        self.latencies.append(latency)
        self.traces.append(tuple(trace))

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_vector_calls": self.n_vector_calls,
            "latencies": list(self.latencies),
            "traces": [list(t) for t in self.traces],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SessionStats":
        return cls(
            n_queries=int(d.get("n_queries", 0)),
            n_vector_calls=int(d.get("n_vector_calls", 0)),
            latencies=[float(x) for x in d.get("latencies", [])],
            traces=[tuple(t) for t in d.get("traces", [])],
        )


def fallback_percentage(stats: SessionStats) -> float:
    """Fraction of queries that fell back to the caption store."""
    if stats.n_queries < 1:
        raise ValueError("no queries recorded")
    return stats.n_vector_calls / stats.n_queries


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ToolEntry:
    name: str
    schema: dict
    handler: Callable[..., list]
    vector: bool


class Router:
    """Dispatches planner actions against the two memory stores.

    The six built-in tools are registered from ``tools.TOOLS``, the table
    ``lgr query`` also reads; additional tools can be registered so an
    external LLM adapter can mount the same loop. Tool handlers are
    read-only with respect to the stores.
    """

    def __init__(
        self,
        graph: MemoryGraph,
        captions: CaptionStore,
        provider: EmbeddingProvider,
        planner: Planner,
        cfg: Optional[Config] = None,
        stats: Optional[SessionStats] = None,
    ):
        self._planner = planner
        self._cfg = cfg if cfg is not None else graph.cfg
        self.stats = stats if stats is not None else SessionStats()
        self._tools: dict[str, _ToolEntry] = {}
        for t in TOOLS:
            self.register_tool(
                t.name, t.schema(), partial(t.run, graph, captions, provider), t.vector
            )

    # -- tool registry -------------------------------------------------

    def register_tool(
        self,
        name: str,
        schema: dict,
        handler: Callable[..., list],
        vector: bool = False,
    ) -> None:
        """Mount a tool for planners to call. Names must be unique."""
        if name in self._tools:
            raise ValueError(f"tool already registered: {name}")
        self._tools[name] = _ToolEntry(name, dict(schema), handler, vector)

    def tool_schemas(self) -> list[dict]:
        """Machine-readable descriptors, one per tool, in registry order."""
        return [
            {"name": e.name, **e.schema, "vector_store": e.vector}
            for e in self._tools.values()
        ]

    # -- the loop --------------------------------------------------------

    def answer_query(self, query: str) -> Answer:
        """Run the planner loop; never raises on planner or tool trouble.

        Unknown tools and handler errors land in the trace as failed
        results and the loop continues; a planner that never answers is
        cut off after ``max_planner_iterations`` actions with a truncated
        give-up answer.
        """
        t0 = time.perf_counter()
        context: list[ToolResult] = []
        used_vector = False
        truncated = False
        for _ in range(self._cfg.max_planner_iterations):
            action = self._planner.next_action(query, tuple(context))
            if isinstance(action, (AnswerAction, GiveUpAction)):
                break
            result = self._dispatch(action)
            context.append(result)
            used_vector = used_vector or result.vector
        else:
            action, truncated = GiveUpAction("iteration limit reached"), True
        gave_up = isinstance(action, GiveUpAction)
        if gave_up:
            action = AnswerAction(text=action.reason)
        elapsed = time.perf_counter() - t0
        self.stats.record([r.tool for r in context], elapsed, used_vector)
        return Answer(
            text=action.text,
            pose=action.pose,
            time=action.time,
            trace=tuple(context),
            elapsed=elapsed,
            gave_up=gave_up,
            truncated=truncated,
        )

    # -- internals -------------------------------------------------------

    def _dispatch(self, call: CallTool) -> ToolResult:
        entry = self._tools.get(call.tool)
        args = dict(call.args)
        if entry is None:
            return ToolResult(call.tool, args, None, f"unknown tool: {call.tool}", False)
        try:
            hits = entry.handler(**args)
        except Exception as exc:  # planner mistakes must not kill the loop
            return ToolResult(call.tool, args, None, str(exc), entry.vector)
        return ToolResult(call.tool, args, hits, None, entry.vector)


# ----------------------------------------------------------------------
# planners
# ----------------------------------------------------------------------

_CLOCK_RE = re.compile(r"\b(\d{1,3}):([0-5][0-9]):([0-5][0-9])\b")
_COORD_RE = re.compile(
    r"near\s*\(?\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*\)?"
)
_WORD_RE = re.compile(r"[a-z']+")

# semantic graph hits scoring below this fall back to the caption store
RELEVANCE_FLOOR = 0.45

_STOPWORDS = frozenset(
    """
    a an the and or of is are was were be been being do does did done you your
    yours i me my we us our it its this that these those there here where when
    what which who whom how why find locate show take bring go get near nearest
    closest last latest first see seen saw observe observed look looked watch
    watched spot spotted notice noticed place position location time around at
    in on to from with by for have has had can could would should may might
    any some please tell describe
    """.split()
)


@lru_cache(maxsize=1024)
def _classify(query: str):
    """(kind, subject, clock match, coordinates match) of a question.

    Every step of a routed question needs the parse, so it is cached by
    query string; the bound keeps a long session's cache small.
    """
    q = query.lower()
    clock = _CLOCK_RE.search(q)
    coords = _COORD_RE.search(q)
    words = _WORD_RE.findall(q)
    subject = " ".join(w for w in words if w not in _STOPWORDS) or q.strip()
    if clock:
        kind = "at_time"
    elif "when" in words:
        kind = "temporal"
    elif coords:
        kind = "position"
    elif any(w in words for w in ("where", "closest", "nearest", "find", "locate")):
        kind = "spatial"
    else:
        kind = "descriptive"
    return kind, subject, clock, coords


class RuleBasedPlanner(Planner):
    """Deterministic keyword router standing in for an LLM planner.

    The first action always queries the graph. If the best graph hit is
    weak (semantic score below ``RELEVANCE_FLOOR``) or absent, the second
    action falls back to the caption store; the answer then comes from the
    top caption record. Queries carrying an explicit hh:mm:ss clock go to
    the temporal tool, queries carrying "near (x, y, z)" coordinates to the
    positional tool, everything else to semantic search over the words
    left once routing keywords are stripped.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k

    def next_action(self, query: str, context: Sequence[ToolResult]) -> Action:
        kind, subject, clock, coords = _classify(query)
        if not context:
            return self._calls(kind, subject, clock, coords)[0]
        last = context[-1]
        if last.tool in GRAPH_TOOLS:
            if last.ok and last.hits:
                top = last.hits[0]
                if last.tool != "t_semantic" or top.score >= RELEVANCE_FLOOR:
                    return self._answer_from_node(kind, top)
            return self._calls(kind, subject, clock, coords)[1]
        if last.tool in VECTOR_TOOLS:
            if last.ok and last.hits:
                return self._answer_from_caption(last.hits[0])
            return GiveUpAction("no relevant memory found")
        return GiveUpAction(f"unexpected tool in context: {last.tool}")

    # -- routing table ---------------------------------------------------

    def _calls(self, kind, subject, clock, coords) -> tuple[CallTool, CallTool]:
        """The graph call for a query and its caption-store fallback."""
        k = self._k
        if kind == "at_time":
            hh, mm, ss = (int(g) for g in clock.groups())
            t = time_components_to_seconds(hh, mm, ss)
            return (
                CallTool("t_time", {"hh": hh, "mm": mm, "ss": ss, "k": k}),
                CallTool("captions_time", {"t": t, "k": k}),
            )
        if kind == "position":
            x, y, z = (float(g) for g in coords.groups())
            xyz = {"x": x, "y": y, "z": z, "k": k}
            return CallTool("t_position", xyz), CallTool("captions_position", xyz)
        text = {"query": subject, "k": k}
        return CallTool("t_semantic", text), CallTool("captions_text", text)

    @staticmethod
    def _answer_from_node(kind: str, hit: RetrievalHit) -> AnswerAction:
        p = hit.pose
        if kind == "temporal":
            text = f"'{hit.label_text}' was last seen at {hit.last_seen:.1f} s"
        elif kind == "at_time":
            text = f"around that time: '{hit.label_text}' at ({p.x:.2f}, {p.y:.2f}, {p.z:.2f})"
        else:
            text = f"'{hit.label_text}' is at ({p.x:.2f}, {p.y:.2f}, {p.z:.2f})"
        return AnswerAction(text=text, pose=p, time=hit.last_seen)

    @staticmethod
    def _answer_from_caption(hit: CaptionHit) -> AnswerAction:
        return AnswerAction(
            text=f"recalled scene: {hit.text}", pose=hit.pose, time=hit.time
        )


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
